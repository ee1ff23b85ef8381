import argparse
import hashlib
import importlib
import json
import os
import resource
import subprocess
import sys
from dataclasses import replace
from math import isqrt

import pytest

import thetaforge
from thetaforge import serialize
from thetaforge.cli import build_parser, load_config, main
from thetaforge.groupring import delta_element, one, zero
from thetaforge.hecke import hecke_T, hecke_U, local_eigen_extend, stabilize
from thetaforge.measures import check_distribution, from_tree, synth_system, theta_level
from thetaforge.padic import EigenData
from thetaforge.torus import QuadraticTorus, TorusElement, orbit_table
from thetaforge.util import PRIME_TEST_BOUND, is_prime


def run(argv):
    return main(argv)


def read_artifact_from_stdout(capsys):
    out = capsys.readouterr().out
    path = [l for l in out.splitlines() if l.startswith("artifact:")][0].split(": ", 1)[1]
    return out, path


def _cap_address_space():
    """Limit the calling process to 1 GiB of address space."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))


# a system artifact of the format that keyed each level by label name
# (content hash adc6564d4d3e558b)
NAME_KEYED_SYSTEM = (
    '{"kind":"system","payload":{"delta":1,"eigen":{"alpha":null,"ap":{"k":6,"p":3,'
    '"residue":"0"}},"fibers":[null,{"0|0":"0|0","1|0":"0|0","2|0":"0|0","3|0":"0|0"},'
    '{"0|0":"0|0","0|1":"0|0","0|2":"0|0","1|0":"1|0","1|1":"1|0","1|2":"1|0","2|0":"2|0",'
    '"2|1":"2|0","2|2":"2|0","3|0":"3|0","3|1":"3|0","3|2":"3|0"}],"free":[{"0|0":[0]},'
    '{"0|0":[0],"1|0":[0],"2|0":[0],"3|0":[0]},{"0|0":[0],"0|1":[1],"0|2":[2],"1|0":[0],'
    '"1|1":[1],"1|2":[2],"2|0":[0],"2|1":[1],"2|2":[2],"3|0":[0],"3|1":[1],"3|2":[2]}],'
    '"k":6,"level_exp":[0,0,1],"levels":[{"0|0":"137"},{"0|0":"582","1|0":"64",'
    '"2|0":"261","3|0":"551"},{"0|0":"120","0|1":"507","0|2":"694","1|0":"460",'
    '"1|1":"483","1|2":"378","2|0":"667","2|1":"388","2|2":"266","3|0":"214","3|1":"96",'
    '"3|2":"282"}],"mode":"vertex","n_max":2,"p":3,"torsion":4},"schema":"thetaforge/1"}\n'
)


# a system artifact of the format that kept, with each level's residues, the
# parent positions and the free digits by label position, and a label kind
# naming the positions: this torus tower's labels are in coset_labels order,
# written by from_tree(local_eigen_extend(3, 4, 0, 2, seed=1), torus d = 2,
# supersingular, depth 2) (content hash 18899bdb8ecfdd7c)
LABEL_ORDER_SYSTEM = (
    '{"kind":"system","payload":{"delta":1,"eigen":{"alpha":null,"ap":{"k":4,"p":3,'
    '"residue":"0"}},"fibers":[null,[0,0,0,0],[0,1,2,0,1,2,0,1,2,3,3,3]],"free":[[0],'
    '[0,0,0,0],[0,2,2,2,0,0,1,1,1,0,1,2]],"k":4,"label_kind":"torus","level_exp":[0,0,1],'
    '"levels":[["66"],["34","22","66","40"],["71","18","59","7","55","72","18","23","46",'
    '"65","9","22"]],"mode":"vertex","n_max":2,"p":3,"torsion":4},"schema":"thetaforge/1"}\n'
)


def write_with_repeated_key(path, obj, table):
    """Write obj as JSON text in which the first key of `table`, a dict inside
    obj, appears twice: first with a stray value, then with its own, which a
    last-value-wins parser would keep."""
    key = sorted(table)[0]
    value, table[key] = table[key], "REPEATED"
    with open(path, "w") as fh:
        fh.write(json.dumps(obj).replace('"REPEATED"', f'"345", {json.dumps(key)}: {json.dumps(value)}'))


class TestTreeCommands:
    def test_sphere_emits_36(self, tmp_path, capsys):
        assert run(["tree", "sphere", "--p", "3", "--r", "3",
                    "--out", str(tmp_path)]) == 0
        out, path = read_artifact_from_stdout(capsys)
        assert "36 vertices" in out
        payload = serialize.read_artifact(path, "sphere")
        assert payload["count"] == 36
        assert len(payload["vertices"]) == 36

    def test_neighbors_and_distance(self, tmp_path, capsys):
        assert run(["tree", "neighbors", "--p", "5", "--vertex", "0,0,0",
                    "--out", str(tmp_path)]) == 0
        out, path = read_artifact_from_stdout(capsys)
        assert len(serialize.read_artifact(path, "neighbors")["neighbors"]) == 6
        assert run(["tree", "distance", "--p", "3", "--v", "0,0,0", "--w", "0,2,0",
                    "--out", str(tmp_path)]) == 0
        out, path = read_artifact_from_stdout(capsys)
        assert serialize.read_artifact(path, "distance")["distance"] == 2

    def test_dot_output(self, tmp_path, capsys):
        assert run(["tree", "dot", "--p", "2", "--r", "1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "graph bruhat_tits" in out
        # the content hash of the DOT artifact written when the edges came
        # from per-vertex parent lookups; reading them off the edge table
        # must not change a byte
        assert run(["tree", "dot", "--p", "3", "--r", "2", "--out", str(tmp_path)]) == 0
        _, path = read_artifact_from_stdout(capsys)
        assert os.path.basename(path) == "dot-288f53732f8b714f.json"

    def test_negative_radius_is_a_typed_error(self, tmp_path, capsys):
        # used to exit 0 with a one-vertex graph
        assert run(["tree", "dot", "--p", "3", "--r", "-1", "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("argv,error", [
        (["tree", "sphere", "--p", "3", "--r", "25"], "MemoryError"),
        (["tree", "sphere", "--p", "3", "--r", "40"], "ValueError"),
        (["forms", "nu", "--form", None], "ValueError"),
    ])
    def test_absurd_radius_is_refused_at_once(self, tmp_path, capsys, argv, error):
        # a ball builds nothing until its objects are asked for; the walk
        # then allocates its id-sized lists before any object, and ball()
        # refuses a size past sys.maxsize.  A subprocess with a timeout fails
        # the test instead of hanging it, under its own address-space cap
        if None in argv:
            assert run(["forms", "eigen-extend", "--p", "3", "--k", "6", "--ap", "1",
                        "--radius", "2", "--seed", "1", "--out", str(tmp_path)]) == 0
            _, path = read_artifact_from_stdout(capsys)
            payload = serialize.read_artifact(path)
            payload["radius"] = 40
            argv = [*argv[:-1], serialize.write_artifact(str(tmp_path), "form", payload)]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(thetaforge.__file__))}
        done = subprocess.run(
            [sys.executable, "-m", "thetaforge.cli", *argv, "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=20, env=env, preexec_fn=_cap_address_space)
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        assert json.loads(done.stdout.strip())["error"]["type"] == error


class TestTorusCommands:
    def test_orbit(self, tmp_path, capsys):
        assert run(["torus", "orbit", "--p", "3", "--d", "2", "--level", "2",
                    "--out", str(tmp_path)]) == 0
        out, path = read_artifact_from_stdout(capsys)
        payload = serialize.read_artifact(path, "orbit")
        assert len(payload["rows"]) == 12
        assert payload["free_exponent"] == 1
        # rows carry the [torsion index, free digit] split
        assert all(len(r["h"]) == 2 for r in payload["rows"])

    def test_negative_level_is_a_typed_error(self, tmp_path, capsys):
        assert run(["torus", "orbit", "--p", "3", "--level", "-1",
                    "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"

    def test_pinned_orbit_artifact_names(self, tmp_path, capsys):
        # content hashes of orbit tables written when each label was split by
        # two CRT powers; reading the split off one group walk must not
        # change a byte
        def emit(*argv):
            assert run(["torus", "orbit", *argv, "--out", str(tmp_path)]) == 0
            return os.path.basename(read_artifact_from_stdout(capsys)[1])

        assert emit("--p", "3", "--level", "4", "--mode", "edge") == "orbit-e18cc2a652f60b2c.json"
        assert emit("--p", "5", "--level", "3", "--mode", "vertex") == "orbit-1dca9eb32be04d59.json"
        assert emit("--p", "7", "--level", "2", "--mode", "edge") == "orbit-7cd7e7f3440ff6f9.json"

    def test_pinned_base_seq_artifact_names(self, tmp_path, capsys):
        # content hashes of the base sequences, split kind included: the
        # torus code beneath them must not change a byte
        def emit(*argv):
            assert run(["torus", "base-seq", *argv, "--out", str(tmp_path)]) == 0
            return os.path.basename(read_artifact_from_stdout(capsys)[1])

        assert (emit("--p", "3", "--torus-kind", "split", "--n-max", "4")
                == "base-seq-75dad4619745226e.json")
        # the only torus path at p = 2
        assert (emit("--p", "2", "--torus-kind", "split", "--n-max", "3")
                == "base-seq-9a584a90de327c58.json")
        assert emit("--p", "5", "--n-max", "4") == "base-seq-9f4cb1c33632cdaf.json"

    def test_split_torus_refuses_a_non_residue(self, tmp_path, capsys):
        # --d used to be dropped without a word for the split kind
        assert run(["torus", "base-seq", "--p", "5", "--torus-kind", "split", "--d", "2",
                    "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"

    def test_base_seq(self, tmp_path, capsys):
        assert run(["torus", "base-seq", "--p", "5", "--d", "2", "--n-max", "3",
                    "--out", str(tmp_path)]) == 0
        out, path = read_artifact_from_stdout(capsys)
        payload = serialize.read_artifact(path, "base-seq")
        assert len(payload["vertices"]) == 4
        assert len(payload["edges"]) == 3


class TestFormsAndSystems:
    def test_full_pipeline(self, tmp_path, capsys):
        assert run(["forms", "eigen-extend", "--p", "3", "--k", "6", "--ap", "1",
                    "--radius", "3", "--seed", "2", "--out", str(tmp_path)]) == 0
        _, form_path = read_artifact_from_stdout(capsys)
        assert run(["forms", "stabilize", "--form", form_path, "--ap", "1",
                    "--out", str(tmp_path)]) == 0
        _, edge_path = read_artifact_from_stdout(capsys)
        phi = serialize.form_from_json(serialize.read_artifact(edge_path, "form"))
        eig = EigenData.ordinary(3, 6, 1)
        (u_phi,), (ph,) = hecke_U(phi).tables, phi.tables
        for e in u_phi:
            assert u_phi[e] == eig.alpha * ph[e]
        assert run(["forms", "nu", "--form", form_path, "--out", str(tmp_path)]) == 0
        _, nu_path = read_artifact_from_stdout(capsys)
        assert "nu" in serialize.read_artifact(nu_path, "nu")

    def test_synth_check_theta_lp(self, tmp_path, capsys):
        assert run(["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "4", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        assert run(["check-dist", "--system", sys_path, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert run(["theta", "--system", sys_path, "--level", "3", "--ordinary",
                    "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert run(["lp", "--system", sys_path, "--level", "3", "--kind", "ordinary",
                    "--out", str(tmp_path)]) == 0
        out, lp_path = read_artifact_from_stdout(capsys)
        assert "mu" in out
        payload = serialize.read_artifact(lp_path, "lp")
        assert payload["kind"] == "ordinary"

    def test_corrupted_system_exits_with_location(self, tmp_path, capsys):
        assert run(["synth", "--mode", "vertex", "--ap", "0", "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "1", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(sys_path))
        level = obj["payload"]["levels"][2]
        level[0] = str((int(level[0]) + 1) % 3**6)
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        assert run(["check-dist", "--system", bad_path, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "DistributionViolation"
        assert "layer" in err["error"]["detail"]["violation"]

    @pytest.mark.parametrize("damage", ["envelope-list", "levels-cut", "level-number",
                                        "level-null", "level-short", "level-long",
                                        "level-text"])
    def test_malformed_system_is_a_typed_error(self, tmp_path, capsys, damage):
        # a level is read by its tower's label count alone: null, one label
        # short or long, or a residue that is not an integer, it is refused
        assert run(["synth", "--mode", "vertex", "--ap", "0", "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "1", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(sys_path))
        levels = obj["payload"]["levels"]
        if damage == "envelope-list":
            obj = []
        elif damage == "levels-cut":
            obj["payload"]["levels"] = levels[:2]
        elif damage == "level-number":
            levels[1] = 5
        elif damage == "level-null":
            levels[2] = None
        elif damage == "level-short":
            levels[3].pop()
        elif damage == "level-long":
            levels[3].append("0")
        else:
            levels[3][0] = "x"
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        for command in (["check-dist"], ["theta", "--level", "3"]):
            assert run([*command, "--system", bad_path, "--out", str(tmp_path)]) == 1
            err = json.loads(capsys.readouterr().out.strip())
            assert err["error"]["type"] == "ValueError"
            if damage.startswith("level"):
                assert "level" in err["error"]["detail"]

    def test_repeated_system_key_is_a_typed_error(self, tmp_path, capsys):
        # the payload's first key, "delta", given twice; a last-value-wins
        # parser reads the artifact as the system it was
        assert run(["synth", "--mode", "vertex", "--ap", "0", "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "1", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(sys_path))
        bad_path = os.path.join(str(tmp_path), "bad.json")
        write_with_repeated_key(bad_path, obj, obj["payload"])
        assert run(["check-dist", "--system", bad_path, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"

    def test_repeated_coefficient_key_is_a_typed_error(self, tmp_path, capsys):
        # a last-value-wins parser reads this lp artifact without complaint
        assert run(["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "4", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        assert run(["lp", "--system", sys_path, "--level", "3", "--out", str(tmp_path)]) == 0
        _, lp_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(lp_path))
        bad_path = os.path.join(str(tmp_path), "bad.json")
        write_with_repeated_key(bad_path, obj, obj["payload"]["value"]["coeffs"])
        assert run(["mu", "--element", bad_path, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"

    def test_lp_plus_on_ordinary_system_errors(self, tmp_path, capsys):
        assert run(["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "4", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        assert run(["lp", "--system", sys_path, "--level", "3", "--kind", "plus",
                    "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "NotSupersingular"

    @pytest.mark.parametrize("mode,flags,missing", [("edge", [], "--alpha"),
                                                    ("vertex", ["--alpha", "1"], "--ap")])
    def test_missing_eigenvalue_flag_is_a_typed_error(self, tmp_path, capsys, mode, flags,
                                                      missing):
        # used to end in a TypeError from None % p^k
        assert run(["synth", "--mode", mode, *flags, "--p", "3", "--k", "6",
                    "--n-max", "3", "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"
        assert missing in err["error"]["detail"]

    @pytest.mark.parametrize("mode,ap,kind,level", [
        ("edge", "1", "ordinary", "0"),     # used to end in a bare KeyError
        ("edge", "1", "ordinary", "-2"),    # likewise
        ("vertex", "0", "plus", "9"),       # used to end in an IndexError
    ])
    def test_lp_level_out_of_range_is_a_typed_error(self, tmp_path, capsys, mode, ap, kind,
                                                    level):
        assert run(["synth", "--mode", mode, "--ap", ap, "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "4", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        assert run(["lp", "--system", sys_path, "--level", level, "--kind", kind,
                    "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"
        assert "outside populated range" in err["error"]["detail"]

    def test_stabilize_of_an_edge_form_is_a_typed_error(self, tmp_path, capsys):
        # used to end in a KeyError naming a Vertex
        assert run(["forms", "eigen-extend", "--p", "3", "--k", "6", "--ap", "1",
                    "--radius", "2", "--out", str(tmp_path)]) == 0
        _, form_path = read_artifact_from_stdout(capsys)
        assert run(["forms", "stabilize", "--form", form_path, "--ap", "1",
                    "--out", str(tmp_path)]) == 0
        _, edge_path = read_artifact_from_stdout(capsys)
        assert run(["forms", "stabilize", "--form", edge_path, "--ap", "1",
                    "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("mode,ap,damage,command", [
        ("edge", "1", "alpha", "check-dist"),     # used to end in an AttributeError
        ("vertex", "0", "ap", "check-dist"),      # likewise
        ("edge", "1", "mode", "check-dist"),      # used to end in a TypeError
        ("edge", "1", "mode", "theta"),           # used to exit 0
    ])
    def test_bad_mode_or_missing_eigenvalue_is_a_typed_error(self, tmp_path, capsys, mode,
                                                             ap, damage, command):
        assert run(["synth", "--mode", mode, "--ap", ap, "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "1", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(sys_path))
        if damage == "mode":
            obj["payload"]["mode"] = "banana"
        else:
            obj["payload"]["eigen"][damage] = None
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        extra = ["--level", "2"] if command == "theta" else []
        assert run([command, "--system", bad_path, *extra, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("damage,kind,command,detail", [
        ("repeated", "vertex", "stabilize", "repeats a point"),   # the later value used to win
        ("repeated", "vertex", "nu", "repeats a point"),
        ("repeated", "edge", "nu", "repeats a point"),
        ("outside", "vertex", "nu", "lies outside the ball"),     # used to count the stray value
        ("outside", "vertex", "stabilize", "lies outside the ball"),  # used to drop it
        ("outside", "edge", "nu", "lies outside the ball"),
        ("not-adjacent", "edge", "nu", "adjacent"),
        ("string-values", "vertex", "nu", "list of one value"),   # used to read "7" as 7
        ("object-values", "vertex", "nu", "list of one value"),   # used to read {"7": 1} as 7
        # residues outside [0, 3^6) used to be reduced without a word
        ("residue=-5", "vertex", "nu", "outside [0, 3^6)"),
        ("residue=732", "vertex", "nu", "outside [0, 3^6)"),
        (f"residue={10**40}", "vertex", "nu", "outside [0, 3^6)"),
        ("residue=732", "edge", "nu", "outside [0, 3^6)"),
    ])
    def test_stray_form_entry_is_a_typed_error(self, tmp_path, capsys, damage, kind, command,
                                               detail):
        assert run(["forms", "eigen-extend", "--p", "3", "--k", "6", "--ap", "1",
                    "--radius", "2", "--seed", "2", "--out", str(tmp_path)]) == 0
        _, form_path = read_artifact_from_stdout(capsys)
        if kind == "edge":
            assert run(["forms", "stabilize", "--form", form_path, "--ap", "1",
                        "--out", str(tmp_path)]) == 0
            _, form_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(form_path))
        entries = obj["payload"]["entries"]
        if damage == "repeated":
            entries.append({"w": entries[0]["w"],
                            "values": [str(int(entries[0]["values"][0]) + 1)]})
        elif damage == "outside" and kind == "vertex":
            entries.append({"w": {"a": 5, "b": 0, "u": 0}, "values": ["1"]})
        elif damage == "outside":
            # (2,0,0) -> (3,0,0) runs from the boundary sphere out of the ball
            entries.append({"w": {"source": {"a": 2, "b": 0, "u": 0},
                                  "target": {"a": 3, "b": 0, "u": 0}}, "values": ["1"]})
        elif damage == "not-adjacent":
            # both ends lie in the ball, two steps apart
            entries.append({"w": {"source": {"a": 0, "b": 0, "u": 0},
                                  "target": {"a": 2, "b": 0, "u": 0}}, "values": ["1"]})
        elif damage.startswith("residue="):
            entries[0]["values"] = [damage.removeprefix("residue=")]
        else:
            entries[0]["values"] = "7" if damage == "string-values" else {"7": 1}
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        extra = ["--ap", "1"] if command == "stabilize" else []
        assert run(["forms", command, "--form", bad_path, *extra, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"
        assert detail in err["error"]["detail"]

    def test_specialize_and_mu(self, tmp_path, capsys):
        assert run(["synth", "--mode", "vertex", "--ap", "0", "--p", "3", "--k", "6",
                    "--n-max", "4", "--seed", "9", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        assert run(["theta", "--system", sys_path, "--level", "4",
                    "--out", str(tmp_path)]) == 0
        _, th_path = read_artifact_from_stdout(capsys)
        assert run(["mu", "--element", th_path, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert run(["specialize", "--element", th_path,
                    "--character", '{"m":1,"exponents":[1]}',
                    "--out", str(tmp_path)]) == 0
        out, sp_path = read_artifact_from_stdout(capsys)
        payload = serialize.read_artifact(sp_path, "specialize")
        assert "valuation_units" in payload

    @pytest.mark.parametrize("character", ['[]', '{"m":1,"exponents":5}',
                                           '{"exponents":[1]}', '{"m":-1,"exponents":[1]}'])
    def test_malformed_character_is_a_typed_error(self, tmp_path, capsys, character):
        th_path = serialize.write_artifact(str(tmp_path), "theta", one(3, 5, 2).to_json())
        assert run(["specialize", "--element", th_path, "--character", character,
                    "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"


    @pytest.mark.parametrize("value", ["-5", "732", str(10**40)], ids=["-5", "732", "10**40"])
    def test_stray_theta_coefficient_is_a_typed_error(self, tmp_path, capsys, value):
        # a coefficient outside [0, 3^6) used to be reduced without a word
        assert run(["synth", "--mode", "vertex", "--ap", "0", "--p", "3", "--k", "6",
                    "--n-max", "4", "--seed", "9", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        assert run(["theta", "--system", sys_path, "--level", "4",
                    "--out", str(tmp_path)]) == 0
        _, th_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(th_path))
        coeffs = obj["payload"]["value"]["coeffs"]
        coeffs[sorted(coeffs)[0]] = value
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        assert run(["mu", "--element", bad_path, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"
        assert "outside [0, 3^6)" in err["error"]["detail"]

    @pytest.mark.parametrize("delta,coeffs", [(1, {"(0,1)": "1"}), (2, {"(2)": "1"}),
                                              (1, {"(1)": "5", "(4)": "7"}),
                                              (1, {"(1)": "5", "(01)": "7"})])
    @pytest.mark.parametrize("command", ["mu", "specialize"])
    def test_malformed_group_ring_key_is_a_typed_error(self, tmp_path, capsys, delta,
                                                       coeffs, command):
        # at p = 3, n = 1 each key used to be read as some other element
        payload = {"p": 3, "k": 5, "n": 1, "delta": delta, "coeffs": coeffs}
        path = serialize.write_artifact(str(tmp_path), "theta", payload)
        extra = ["--character", json.dumps({"m": 1, "exponents": [1] * delta})]
        assert run([command, "--element", path, *(extra if command == "specialize" else []),
                    "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("command,edit,error", [
        ("specialize", {}, "ConductorTooLarge"),
        ("mu", {"n": 40}, "ValueError"),
        ("mu", {"n": 10**9}, "ValueError"),
        ("mu", {"delta": 64}, "ValueError"),
        # 3^30 coefficients pass the size check but not the allocator
        ("mu", {"n": 30}, "MemoryError"),
    ])
    def test_oversized_exponent_is_a_typed_error(self, tmp_path, capsys, command, edit, error):
        # the conductor and the group-ring header are refused by size before
        # p^m or (p^n)^delta is computed; a subprocess with a timeout fails
        # the test instead of hanging it, and its own address-space cap makes
        # an allocation the machine could grant fail as well
        assert run(["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "4", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        assert run(["lp", "--system", sys_path, "--level", "3", "--out", str(tmp_path)]) == 0
        _, path = read_artifact_from_stdout(capsys)
        if edit:
            payload = serialize.read_artifact(path)
            payload["value"].update(edit)
            path = serialize.write_artifact(str(tmp_path), "theta", payload)
        extra = ["--character", json.dumps({"m": 10**9, "exponents": [1]})]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(thetaforge.__file__))}
        done = subprocess.run(
            [sys.executable, "-m", "thetaforge.cli", command, "--element", path,
             *(extra if command == "specialize" else []), "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=20, env=env, preexec_fn=_cap_address_space)
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        err = json.loads(done.stdout.strip())["error"]
        assert err["type"] == error
        if command == "specialize":
            assert err["detail"] == "conductor exponent 1000000000 exceeds layer 2"

    @pytest.mark.parametrize("edit,detail", [
        ({"torsion": 0}, "torsion order 0 must be >= 1 and prime to 3"),
        ({"torsion": -4}, "torsion order -4 must be >= 1 and prime to 3"),
        ({"torsion": 6}, "torsion order 6 must be >= 1 and prime to 3"),
        ({"delta": 0}, "delta 0 must be >= 1"),
        ({"delta": -1}, "delta -1 must be >= 1"),
        ({"level_exp": [0, 1, 1, 2]}, "level_exp [0, 1, 1, 2] is neither the local nor the full"),
        ({"level_exp": [0, 0, 1]}, "level_exp [0, 0, 1] is neither the local nor the full"),
        ({"n_max": 0}, "n_max 0 lies below the edge tower's first level"),
        ({"free": [None, [0] * 4, [0, 1, 2] * 4, list(range(9)) * 4]}, "earlier layout"),
        ({"fibers": None}, "with fibers is of the earlier layout"),
        ({"label_kind": "synth"}, "with label_kind is of the earlier layout"),
    ])
    def test_header_off_the_rule_is_a_typed_error(self, tmp_path, capsys, edit, detail):
        # the header alone fixes every position's parent and free index, so
        # it must name a tower of the layout rule; the earlier layout's
        # index lists are refused, not ignored
        assert run(["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "5",
                    "--n-max", "3", "--seed", "1", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(sys_path))
        obj["payload"].update(edit)
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        for command in (["check-dist"], ["theta", "--level", "3"]):
            assert run([*command, "--system", bad_path, "--out", str(tmp_path)]) == 1
            err = json.loads(capsys.readouterr().out.strip())["error"]
            assert err["type"] == "ValueError"
            assert detail in err["detail"]

    def test_label_order_system_artifact_is_a_typed_error(self, tmp_path, capsys):
        # LABEL_ORDER_SYSTEM keeps a torus tower in coset_labels order; read
        # by the layout rule without its lists, theta exits 0 with another
        # element than the tower's, so the lists mark it and it is refused
        torus, eig = QuadraticTorus(3, "inert", 2), EigenData.supersingular(3, 4)
        tower = from_tree(local_eigen_extend(3, 4, 0, 2, seed=1), torus, eig, 2)
        obj = json.loads(LABEL_ORDER_SYSTEM)
        path = os.path.join(str(tmp_path), "old.json")
        json.dump(obj, open(path, "w"))
        for command in (["check-dist"], ["theta", "--level", "2"], ["lp", "--level", "2"]):
            assert run([*command, "--system", path, "--out", str(tmp_path)]) == 1
            err = json.loads(capsys.readouterr().out.strip())["error"]
            assert err == {"type": "ValueError", "detail": (
                "a system payload with label_kind, fibers, free is of the earlier layout, "
                "whose torus labels were not in walk-step order")}
        for key in ("label_kind", "fibers", "free"):
            del obj["payload"][key]
        stripped = serialize.system_from_json(obj["payload"])
        assert sorted(stripped.levels[2]) == sorted(tower.levels[2])
        assert theta_level(stripped, 2) != theta_level(tower, 2)

    @pytest.mark.parametrize("field", ["level", "ap", "alpha"])
    @pytest.mark.parametrize("residue", [3**6, -5, 10**40], ids=["raised", "negative", "huge"])
    @pytest.mark.parametrize("command", [["check-dist"], ["theta", "--level", "3"],
                                         ["lp", "--level", "3"]], ids=["check-dist", "theta", "lp"])
    def test_residue_out_of_range_is_a_typed_error(self, tmp_path, capsys, residue, command,
                                                   field):
        # a level-3 residue raised by 3^6 used to read back as a system !=
        # the one written, yet pass check-dist; -5 and 10^40 were written
        # back as they were.  An eigenvalue's residue raised by 3^6 (a_p =
        # 730 for 1) used to be reduced without a word, and every command
        # exited 0
        assert run(["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "4", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(sys_path))
        if field == "level":
            table, at = obj["payload"]["levels"][3], 0
        else:
            table, at = obj["payload"]["eigen"][field], "residue"
        bad = int(table[at]) + residue if residue == 3**6 else residue
        table[at] = str(bad)
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        assert run([*command, "--system", bad_path, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        detail = ("level 3: a residue lies outside [0, 3^6)" if field == "level"
                  else f"residue {bad} lies outside [0, 3^6)")
        assert err["error"] == {"type": "ValueError", "detail": detail}

    @pytest.mark.parametrize("label_kind", [None, "synth"])
    def test_name_keyed_system_artifact_is_a_typed_error(self, tmp_path, capsys, label_kind):
        # NAME_KEYED_SYSTEM was written by `synth --mode vertex --ap 0 --p 3
        # --k 6 --n-max 2 --seed 1`; it carries fibers and free indices, with
        # a label kind or without one
        obj = json.loads(NAME_KEYED_SYSTEM)
        if label_kind is not None:
            obj["payload"]["label_kind"] = label_kind
        bad_path = os.path.join(str(tmp_path), "old.json")
        json.dump(obj, open(bad_path, "w"))
        assert run(["check-dist", "--system", bad_path, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())["error"]
        assert err["type"] == "ValueError"
        assert "is of the earlier layout" in err["detail"]

    @pytest.mark.parametrize("exp", [4, 40])
    def test_level_exp_off_the_tower_is_a_typed_error(self, tmp_path, capsys, exp):
        # level 3 has free quotient Z/9; read as Z/81 it used to give an
        # 81-coefficient theta, and a huge exponent allocated p^exp of them.
        # A level map is the local or the full one, so the header is refused
        assert run(["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "6",
                    "--n-max", "3", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(sys_path))
        assert obj["payload"]["level_exp"][3] == 2
        obj["payload"]["level_exp"][3] = exp
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        assert run(["theta", "--system", bad_path, "--level", "3",
                    "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"] == {"type": "ValueError", "detail": (
            f"level_exp [0, 0, 1, {exp}] is neither the local nor the full level map "
            "of levels 0..3")}

    @pytest.mark.parametrize("value", [2.7, True])
    def test_non_integer_system_coefficient_is_a_typed_error(self, tmp_path, capsys, value):
        # int() used to truncate 2.7 to 2 and read true as 1
        assert run(["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "6",
                    "--n-max", "3", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(sys_path))
        level = obj["payload"]["levels"][3]
        level[0] = value
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        assert run(["theta", "--system", bad_path, "--level", "3",
                    "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("value", [2.7, False])
    def test_non_integer_group_ring_coefficient_is_a_typed_error(self, tmp_path, capsys, value):
        # an lp coefficient edited to 2.7 used to read as 2 in mu
        assert run(["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "4", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        assert run(["lp", "--system", sys_path, "--level", "3", "--out", str(tmp_path)]) == 0
        _, lp_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(lp_path))
        coeffs = obj["payload"]["value"]["coeffs"]
        coeffs[sorted(coeffs)[0]] = value
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        assert run(["mu", "--element", bad_path, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("command", ["stabilize", "nu"])
    def test_non_integer_form_value_is_a_typed_error(self, tmp_path, capsys, command):
        # int() used to truncate the value 2.7 to 2
        assert run(["forms", "eigen-extend", "--p", "3", "--k", "6", "--ap", "1",
                    "--radius", "2", "--seed", "2", "--out", str(tmp_path)]) == 0
        _, form_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(form_path))
        obj["payload"]["entries"][0]["values"][0] = 2.7
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        extra = ["--ap", "1"] if command == "stabilize" else []
        assert run(["forms", command, "--form", bad_path, *extra, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"

    def test_non_integer_eigenvalue_is_a_typed_error(self, tmp_path, capsys):
        # int() used to truncate alpha + 0.7 back to alpha, so the check passed
        assert run(["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "1", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(sys_path))
        alpha = obj["payload"]["eigen"]["alpha"]
        alpha["residue"] = int(alpha["residue"]) + 0.7
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        assert run(["check-dist", "--system", bad_path, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("ap", [0, {}, False], ids=["0", "object", "false"])
    def test_malformed_eigenvalue_is_a_typed_error(self, tmp_path, capsys, ap):
        # a truthiness test used to read each of these as "no a_p"
        assert run(["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "4", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(sys_path))
        obj["payload"]["eigen"]["ap"] = ap
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        assert run(["check-dist", "--system", bad_path, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] in ("ValueError", "KeyError")

    @pytest.mark.parametrize("command", ["stabilize", "nu"])
    def test_unknown_form_kind_is_a_typed_error(self, tmp_path, capsys, command):
        # any kind but "vertex" used to read as an edge form
        assert run(["forms", "eigen-extend", "--p", "3", "--k", "6", "--ap", "1",
                    "--radius", "2", "--seed", "1", "--out", str(tmp_path)]) == 0
        _, form_path = read_artifact_from_stdout(capsys)
        assert run(["forms", "stabilize", "--form", form_path, "--ap", "1",
                    "--out", str(tmp_path)]) == 0
        _, edge_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(edge_path))
        obj["payload"]["kind"] = "banana"
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        extra = ["--ap", "1"] if command == "stabilize" else []
        assert run(["forms", command, "--form", bad_path, *extra, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"
        assert "banana" in err["error"]["detail"]

    @pytest.mark.parametrize("command", ["nu", "stabilize"])
    def test_multicomponent_form_is_a_typed_error(self, tmp_path, capsys, command):
        # a form carries one table; an artifact of two components used to
        # read as a form with a second table
        assert run(["forms", "eigen-extend", "--p", "3", "--k", "6", "--ap", "1",
                    "--radius", "2", "--seed", "2", "--out", str(tmp_path)]) == 0
        _, form_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(form_path))
        obj["payload"]["h"] = 2
        for row in obj["payload"]["entries"]:
            row["values"] *= 2
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        extra = ["--ap", "1"] if command == "stabilize" else []
        assert run(["forms", command, "--form", bad_path, *extra, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"
        assert "h = 2" in err["error"]["detail"]

    @pytest.mark.parametrize("character", ['{"m":1.9,"exponents":[1.5]}',
                                           '{"m":1,"exponents":[1.5]}',
                                           '{"m":true,"exponents":[1]}'])
    def test_non_integer_character_is_a_typed_error(self, tmp_path, capsys, character):
        # m = 1.9 with exponent 1.5 used to give the artifact of m = 1, e = 1
        th_path = serialize.write_artifact(str(tmp_path), "theta", one(3, 5, 2).to_json())
        assert run(["specialize", "--element", th_path, "--character", character,
                    "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"


class TestNonPrimeArtifacts:
    # the flags refuse a composite p; each artifact reader must refuse one too
    # rather than compute in base p

    def _refused(self, capsys, argv, tmp_path):
        assert run(argv + ["--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())["error"]
        assert err["type"] == "ValueError" and "not prime" in err["detail"]

    @pytest.mark.parametrize("p", [4, 9])
    @pytest.mark.parametrize("command", ["nu", "stabilize"])
    def test_form_reader(self, tmp_path, capsys, p, command):
        # forms nu used to exit 0 with nu = 0
        assert run(["forms", "eigen-extend", "--p", "3", "--k", "6", "--ap", "1",
                    "--radius", "2", "--seed", "1", "--out", str(tmp_path)]) == 0
        _, form_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(form_path))
        obj["payload"]["p"] = p
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        extra = ["--ap", "1"] if command == "stabilize" else []
        self._refused(capsys, ["forms", command, "--form", bad_path, *extra], tmp_path)

    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_system_reader(self, tmp_path, capsys, p):
        assert run(["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "4", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(sys_path))
        obj["payload"]["p"] = p
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        self._refused(capsys, ["check-dist", "--system", bad_path], tmp_path)

    @pytest.mark.parametrize("which", ["ap", "alpha"])
    def test_eigenvalue_reader(self, tmp_path, capsys, which):
        # the system's own p stays 3; only the eigenvalue's p is edited
        assert run(["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "4", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(sys_path))
        obj["payload"]["eigen"][which]["p"] = 9
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        self._refused(capsys, ["check-dist", "--system", bad_path], tmp_path)

    @pytest.mark.parametrize("command", ["mu", "specialize"])
    def test_group_ring_reader(self, tmp_path, capsys, command):
        # mu used to exit 0 with mu and lambda taken in base 9
        assert run(["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "4", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        assert run(["lp", "--system", sys_path, "--level", "3", "--out", str(tmp_path)]) == 0
        _, lp_path = read_artifact_from_stdout(capsys)
        payload = serialize.read_artifact(lp_path)
        payload["value"].update(p=9, n=3)
        bad_path = serialize.write_artifact(str(tmp_path), "lp", payload)
        extra = ["--character", json.dumps({"m": 1, "exponents": [1]})]
        self._refused(capsys, [command, "--element", bad_path,
                               *(extra if command == "specialize" else [])], tmp_path)


class TestHowardScan:
    def _family_artifact(self, tmp_path, elements, labels):
        payload = {"labels": list(labels),
                   "elements": [e.to_json() for e in elements]}
        return serialize.write_artifact(str(tmp_path), "family", payload)

    def test_scan_identifies_unit_member(self, tmp_path, capsys):
        killed = delta_element(3, 5, 2, (1,)) - one(3, 5, 2)
        fam_path = self._family_artifact(tmp_path, [killed, one(3, 5, 2)], ["a", "b"])
        assert run(["howard-scan", "--family", fam_path, "--prime", "augmentation",
                    "--k0", "1", "--out", str(tmp_path)]) == 0
        out, path = read_artifact_from_stdout(capsys)
        payload = serialize.read_artifact(path, "howard")
        assert payload["passed"] is True
        assert payload["nontrivial"] == ["b"]

    def test_scan_all_zero_fails(self, tmp_path, capsys):
        fam_path = self._family_artifact(tmp_path, [zero(3, 5, 1)], ["z"])
        assert run(["howard-scan", "--family", fam_path, "--prime", "maximal",
                    "--k0", "3", "--out", str(tmp_path)]) == 0
        out, path = read_artifact_from_stdout(capsys)
        assert serialize.read_artifact(path, "howard")["passed"] is False

    def test_custom_witness(self, tmp_path, capsys):
        lam = one(3, 5, 1)
        fam_path = self._family_artifact(tmp_path, [lam], ["u"])
        assert run(["howard-scan", "--family", fam_path, "--prime", "custom",
                    "--witness", '["-1", "1"]', "--k0", "2",
                    "--out", str(tmp_path)]) == 0
        out, path = read_artifact_from_stdout(capsys)
        assert serialize.read_artifact(path, "howard")["passed"] is True

    def test_non_integer_witness_is_a_typed_error(self, tmp_path, capsys):
        # [1.9, 1] used to write the same artifact as [1, 1]
        fam_path = self._family_artifact(tmp_path, [one(3, 5, 1)], ["u"])
        for witness in ("[1.9, 1]", "[1, true]"):
            assert run(["howard-scan", "--family", fam_path, "--prime", "custom",
                        "--witness", witness, "--k0", "2", "--out", str(tmp_path)]) == 1
            err = json.loads(capsys.readouterr().out.strip())
            assert err["error"]["type"] == "ValueError"

    def test_witness_at_k0_zero(self, tmp_path, capsys):
        # the leading coefficient is a unit mod p, even where p^k0 = 1
        fam_path = self._family_artifact(
            tmp_path, [one(3, 5, 1), delta_element(3, 5, 1, (1,))], ["u", "g"])
        assert run(["howard-scan", "--family", fam_path, "--prime", "custom",
                    "--witness", "[1, 1]", "--k0", "0", "--out", str(tmp_path)]) == 0
        _, path = read_artifact_from_stdout(capsys)
        payload = serialize.read_artifact(path, "howard")
        assert payload["passed"] is False
        assert payload["verdicts"] == [{"label": "u", "nontrivial": False, "valuation": 0},
                                       {"label": "g", "nontrivial": False, "valuation": 0}]
        for k0 in ("0", "1", "2"):
            assert run(["howard-scan", "--family", fam_path, "--prime", "custom",
                        "--witness", "[1, 3]", "--k0", k0, "--out", str(tmp_path)]) == 1
            err = json.loads(capsys.readouterr().out.strip())
            assert "unit leading coefficient" in err["error"]["detail"]

    @pytest.mark.parametrize("witness", [["--witness", "5"],
                                         ["--witness", '[[1]]'], [],
                                         ["--witness", "[]"], ["--witness", "[0]"],
                                         ["--witness", "[1, 1]", "--k0", "-1"]])
    def test_malformed_witness_is_a_typed_error(self, tmp_path, capsys, witness):
        fam_path = self._family_artifact(tmp_path, [one(3, 5, 1)], ["u"])
        # a --k0 in `witness` comes last, so it overrides the 2
        assert run(["howard-scan", "--family", fam_path, "--prime", "custom", "--k0", "2",
                    *witness, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("damage", ["labels-number", "elements-object", "payload-list",
                                        "unequal-lengths", "element-number", "label-list"])
    def test_malformed_family_is_a_typed_error(self, tmp_path, capsys, damage):
        element = one(3, 5, 1).to_json()
        payload = {"labels": ["a"], "elements": [element]}
        if damage == "labels-number":
            payload["labels"] = 5
        elif damage == "elements-object":
            payload["elements"] = element
        elif damage == "payload-list":
            payload = [payload]
        elif damage == "unequal-lengths":
            payload["labels"] = ["a", "b"]
        elif damage == "element-number":
            payload["elements"] = [5]
        else:
            payload["labels"] = [["a"]]
        fam_path = serialize.write_artifact(str(tmp_path), "family", payload)
        assert run(["howard-scan", "--family", fam_path, "--prime", "maximal",
                    "--k0", "2", "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"


class TestConfigAndDeterminism:
    @pytest.mark.parametrize("argv", [
        ["tree", "sphere", "--p", "4", "--r", "2"],                 # used to exit 0
        ["synth", "--mode", "edge", "--ap", "1", "--p", "4"],      # used to exit 0
        ["synth", "--mode", "edge", "--ap", "1", "--delta", "0"],  # used to exit 0
        ["synth", "--mode", "vertex", "--ap", "0", "--n-max", "-1"],  # IndexError
        ["synth", "--mode", "edge", "--ap", "1", "--n-max", "0"],     # IndexError
        ["synth", "--mode", "edge", "--ap", "1", "--torsion", "-2"],  # used to exit 0
    ])
    def test_bad_size_is_a_typed_error(self, tmp_path, capsys, argv):
        assert run(argv + ["--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"

    def test_large_prime_flag_is_decided_at_once(self, tmp_path):
        # trial division up to isqrt(p) did not finish within 20 s here
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(thetaforge.__file__))}
        # a prime, and a product of two primes near 10^9
        for p, out in ((10**18 + 3, "1 vertices at distance 0"),
                       ((10**9 + 7) * (10**9 + 9), "is not prime")):
            done = subprocess.run(
                [sys.executable, "-m", "thetaforge.cli", "tree", "sphere", "--p", str(p),
                 "--r", "0", "--out", str(tmp_path)],
                capture_output=True, text=True, timeout=20, env=env)
            assert out in done.stdout, done.stdout + done.stderr
            assert done.returncode == ("not prime" in out)

    def test_is_prime_matches_trial_division(self):
        assert [n for n in range(-3, 5000) if is_prime(n)] == [
            n for n in range(2, 5000) if all(n % q for q in range(2, isqrt(n) + 1))]
        # strong pseudoprimes to the first 1, 4, 9 and 12 prime bases, and
        # squares and products of primes among and just past the bases
        for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461,
                  41 * 41, 37 * 41, 43 * 47, (10**9 + 7) * (10**9 + 9)):
            assert not is_prime(n), n
        for n in (2, 41, 43, 2**31 - 1, 2**61 - 1, 10**18 + 3):
            assert is_prime(n), n
        with pytest.raises(ValueError):
            is_prime(PRIME_TEST_BOUND)

    def test_prime_beyond_the_proven_range_is_refused(self, tmp_path, capsys):
        assert run(["tree", "sphere", "--p", str(PRIME_TEST_BOUND + 2), "--r", "0",
                    "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())["error"]
        assert err["type"] == "ValueError" and "decided only below" in err["detail"]

    def test_p_two_stays_valid_for_tree_commands(self, tmp_path, capsys):
        assert run(["tree", "sphere", "--p", "2", "--r", "2", "--out", str(tmp_path)]) == 0
        assert "6 vertices" in capsys.readouterr().out

    def test_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("p = 5\nk = 7\nn_max = 2\nseed = 3   # comment\n")
        raw = load_config(str(cfg_path))
        assert raw == {"p": "5", "k": "7", "n_max": "2", "seed": "3"}

        def emit(*argv):
            assert run([*argv, "--out", str(tmp_path)]) == 0
            return read_artifact_from_stdout(capsys)[1]

        synth = ["synth", "--mode", "edge", "--ap", "1"]
        assert emit(*synth, "--config", str(cfg_path)) == emit(
            *synth, "--p", "5", "--k", "7", "--n-max", "2", "--seed", "3")
        # torus orbit reads p from the file, ignores k, n_max and seed, and
        # fills in the default non-residue mod 5
        orbit = emit("torus", "orbit", "--level", "1", "--config", str(cfg_path))
        payload = serialize.read_artifact(orbit, "orbit")
        assert (payload["p"], payload["d"]) == (5, 2)

    def test_explicit_zero_seed_beats_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("seed = 5\n")

        def emit(*argv):
            assert run(["synth", "--mode", "edge", "--ap", "1", *argv,
                        "--out", str(tmp_path)]) == 0
            return read_artifact_from_stdout(capsys)[1]

        zero = emit("--seed", "0")
        assert emit("--seed", "0", "--config", str(cfg_path)) == zero
        assert emit("--config", str(cfg_path)) != zero

    def test_precision_headroom_enforced(self, tmp_path, capsys):
        assert run(["synth", "--mode", "edge", "--ap", "1", "--k", "4", "--n-max", "3",
                    "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"

    def test_precision_headroom_only_where_depth_is_read(self, tmp_path, capsys):
        # eigen-extend reads no depth; a default n_max = 3 used to demand k >= 5
        assert run(["forms", "eigen-extend", "--p", "3", "--k", "4", "--ap", "1",
                    "--radius", "2", "--out", str(tmp_path)]) == 0
        assert "radius-2 ball" in capsys.readouterr().out

    def test_each_command_takes_only_the_flags_it_reads(self):
        common = {"--config", "--out"}
        expected = {
            "tree neighbors": {"--p", "--vertex"},
            "tree distance": {"--p", "--v", "--w"},
            "tree sphere": {"--p", "--r", "--vertex"},
            "tree dot": {"--p", "--r", "--vertex"},
            "torus orbit": {"--p", "--torus-kind", "--d", "--level", "--mode"},
            "torus base-seq": {"--p", "--torus-kind", "--d", "--n-max"},
            "forms eigen-extend": {"--p", "--k", "--seed", "--ap", "--radius"},
            "forms stabilize": {"--form", "--ap"},
            "forms nu": {"--form"},
            "synth": {"--p", "--k", "--delta", "--n-max", "--seed",
                      "--mode", "--ap", "--alpha", "--torsion", "--level-map"},
            "check-dist": {"--system"},
            "theta": {"--system", "--level", "--ordinary"},
            "lp": {"--system", "--level", "--kind"},
            "mu": {"--element"},
            "specialize": {"--element", "--character"},
            "howard-scan": {"--family", "--prime", "--witness", "--k0"},
        }

        def leaves(parser, path=()):
            subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            if not subs:
                yield " ".join(path), parser
            for name, sub in (subs[0].choices.items() if subs else ()):
                yield from leaves(sub, path + (name,))

        got = {
            path: [s for a in leaf._actions for s in a.option_strings if s not in ("-h", "--help")]
            for path, leaf in leaves(build_parser())
        }
        assert {path: set(flags) for path, flags in got.items()} == {
            path: flags | common for path, flags in expected.items()}
        assert sum(map(len, got.values())) == 84

    def test_byte_identical_artifacts(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for out in (d1, d2):
            assert run(["synth", "--mode", "vertex", "--ap", "0", "--p", "3",
                        "--k", "6", "--n-max", "3", "--seed", "7",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        f1, f2 = sorted(os.listdir(d1)), sorted(os.listdir(d2))
        assert f1 == f2
        for name in f1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_pinned_form_artifact_names(self, tmp_path, capsys):
        # content hashes of forms written before the ball indexed its
        # adjacency; reading adjacency from the ball must not change a byte
        def emit(*argv):
            assert run(["forms", *argv, "--out", str(tmp_path)]) == 0
            return os.path.basename(read_artifact_from_stdout(capsys)[1])

        assert emit("eigen-extend", "--p", "3", "--k", "11", "--ap", "1", "--radius", "5",
                    "--seed", "7") == "form-e5e4038962f91413.json"
        assert emit("stabilize", "--ap", "1", "--form",
                    str(tmp_path / "form-e5e4038962f91413.json")) == "form-a8942f87c70380b3.json"
        assert emit("eigen-extend", "--p", "2", "--k", "6", "--ap", "1", "--radius", "4",
                    "--seed", "3") == "form-061ea64e88e31ac6.json"

    def test_pinned_polynomial_view_artifact_names(self, tmp_path, capsys):
        # content hashes of the theta artifact (its "poly" field) and the mu
        # artifact (its "lambda" field) at N = 729, written when the polynomial
        # view summed a binomial table; the Taylor shift must not change a byte.
        # The specialize and howard artifacts were written when cyclotomic
        # values used a dense reduction table and a Pascal-row valuation, and
        # the witness remainder its own long division.  The system's name
        # changed when its artifact lost its index lists; its residues did not
        def emit(*argv):
            assert run([*argv, "--out", str(tmp_path)]) == 0
            return os.path.basename(read_artifact_from_stdout(capsys)[1])

        system_name = emit("synth", "--mode", "edge", "--ap", "1", "--p", "3",
                           "--k", "11", "--n-max", "7", "--seed", "7")
        assert system_name == "system-a2ce3680ad7cbd68.json"
        system = str(tmp_path / system_name)
        assert emit("theta", "--system", system, "--level", "7",
                    "--ordinary") == "theta-fbcf6c2a341b207e.json"
        lp_path = str(tmp_path / emit("lp", "--system", system, "--level", "7"))
        assert emit("mu", "--element", lp_path) == "mu-438871f4c271b867.json"
        assert emit("specialize", "--element", lp_path,
                    "--character", '{"m":6,"exponents":[1]}') == "specialize-80fbf07dbf6d4acf.json"
        family = serialize.write_artifact(str(tmp_path), "family", {
            "labels": ["L"], "elements": [serialize.read_artifact(lp_path, "lp")["value"]]})
        assert emit("howard-scan", "--family", family, "--prime", "custom",
                    "--witness", "[1,1]", "--k0", "11") == "howard-086cf48582080fd7.json"


    def test_pinned_rank_two_artifact_names(self, tmp_path, capsys):
        # content hashes of a delta = 2 chain at N = 729, written when the
        # product was a double loop over digit tuples; the packed product and
        # the flat index maps must not change a byte
        def emit(*argv):
            assert run([*argv, "--out", str(tmp_path)]) == 0
            return os.path.basename(read_artifact_from_stdout(capsys)[1])

        system = str(tmp_path / emit("synth", "--mode", "edge", "--ap", "1", "--p", "3",
                                     "--k", "9", "--n-max", "4", "--delta", "2", "--seed", "3"))
        assert emit("theta", "--system", system, "--level", "4",
                    "--ordinary") == "theta-5d2ca842e7fda16a.json"
        lp_name = emit("lp", "--system", system, "--level", "4")
        assert lp_name == "lp-97fa1d4e0ca40800.json"
        assert emit("mu", "--element", str(tmp_path / lp_name)) == "mu-8cfa136a0acde22a.json"


    def test_pinned_genuine_system_artifact_names(self, tmp_path):
        # content hashes of systems read off the tree, written when each label
        # moved to its walk step and the artifact lost its index lists
        def name(system):
            # and each still reads back, level_exp checked against its tower
            assert serialize.system_from_json(serialize.system_to_json(system)) == system
            return os.path.basename(serialize.write_artifact(
                str(tmp_path), "system", serialize.system_to_json(system)))

        torus = QuadraticTorus(3, "inert", 2)
        eig = EigenData.ordinary(3, 9, 1)
        edge = from_tree(stabilize(local_eigen_extend(3, 9, 1, 5, seed=4), eig), torus, eig, 5)
        assert name(edge) == "system-0f6369bdd5fd1b33.json"
        vertex = from_tree(local_eigen_extend(3, 9, 0, 5, seed=4), torus,
                           EigenData.supersingular(3, 9), 5)
        assert name(vertex) == "system-dcee21c784eb8951.json"
        t5 = QuadraticTorus(5, "inert", 2)
        e5 = EigenData.ordinary(5, 7, 2)
        shifted = from_tree(stabilize(local_eigen_extend(5, 7, 2, 3, seed=1), e5), t5, e5, 3,
                            shift=TorusElement(t5, 7, x=2, y=1))
        assert name(shifted) == "system-f15901938ab03b80.json"


class TestSerialization:
    def test_unknown_schema_refused(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "thetaforge/999", "kind": "system",
                                    "payload": {}}))
        with pytest.raises(ValueError):
            serialize.read_artifact(str(path), "system")

    @pytest.mark.parametrize("p,torsion", [(3, None), (3, 11), (5, 13), (11, None)])
    @pytest.mark.parametrize("level_map", ["local", "full"])
    @pytest.mark.parametrize("delta", [1, 2])
    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_system_roundtrip(self, mode, delta, level_map, p, torsion):
        # each system reads back equal, and rewrites byte-identically
        n_max = 3 if p == 3 else 2
        if p == 11 and delta == 2 and level_map == "full":
            n_max = 1           # level 2 would hold 12 * 11^4 labels
        k = n_max + 2
        eig = EigenData.ordinary(p, k, 1) if mode == "edge" else EigenData.supersingular(p, k)
        s = synth_system(p, k, mode, eig, n_max, delta=delta, torsion=torsion,
                         level_map=level_map, seed=p + delta)
        text = serialize.canonical_dumps(serialize.system_to_json(s))
        back = serialize.system_from_json(json.loads(text))
        assert back == s
        assert check_distribution(back).ok
        assert serialize.canonical_dumps(serialize.system_to_json(back)) == text

    def test_delta_two_positions_roundtrip(self):
        # the label tau|d_1,d_2 sits at tau (p^m)^2 + d_1 p^m + d_2, and
        # theta adds it at its flat free index d_1 p^m + d_2
        s = synth_system(3, 7, "edge", EigenData.ordinary(3, 7, 1), 3, delta=2, seed=4)
        at = s.labels(3).index("2|4,7")
        assert at == 2 * 81 + 4 * 9 + 7
        table = list(s.levels[3])
        table[at] = (table[at] + 1) % 3**7
        bumped = replace(s, levels=s.levels[:3] + (tuple(table),))
        before, after = theta_level(s, 3).value.coeffs, theta_level(bumped, 3).value.coeffs
        assert [i for i, (a, b) in enumerate(zip(before, after)) if a != b] == [4 * 9 + 7]
        obj = serialize.system_to_json(s)
        assert sorted(obj) == ["delta", "eigen", "k", "level_exp", "levels", "mode", "n_max",
                               "p", "torsion"]
        back = serialize.system_from_json(json.loads(json.dumps(obj)))
        assert back == s
        assert serialize.system_to_json(back) == obj

    @pytest.mark.parametrize("residue", [3**6, -5, 10**40], ids=["raised", "negative", "huge"])
    def test_residue_out_of_range_is_refused(self, residue):
        # written and read back, a residue outside [0, p^k) used to give a
        # system != the one written; raised by p^k, it passes the check
        s = synth_system(3, 6, "edge", EigenData.ordinary(3, 6, 1), 3, seed=4)
        table = list(s.levels[3])
        table[0] = table[0] + residue if residue == 3**6 else residue
        bad = replace(s, levels=s.levels[:3] + (tuple(table),))
        assert check_distribution(bad).ok == (residue == 3**6)
        with pytest.raises(ValueError, match=r"level 3: a residue lies outside \[0, 3\^6\)"):
            serialize.system_from_json(serialize.system_to_json(bad))

    def test_labels_must_be_the_towers_own(self):
        # a level holds its tower's labels by position, so a label the tower
        # does not have is refused
        s = synth_system(3, 6, "edge", EigenData.ordinary(3, 6, 1), 2, seed=2)
        obj = serialize.system_to_json(s)
        obj["levels"][2].append(obj["levels"][2][0])
        with pytest.raises(ValueError, match="level 2: 13 labels, where the tower has 12"):
            serialize.system_from_json(obj)
        # a torsion order far beyond the label count is refused by the
        # count, and a huge delta before p^(e delta) is computed
        obj = serialize.system_to_json(s)
        obj["torsion"] = 10**12
        with pytest.raises(ValueError, match="level 1: 4 labels, where the tower has"):
            serialize.system_from_json(obj)
        obj = serialize.system_to_json(s)
        obj["delta"] = 10**12
        with pytest.raises(ValueError, match=r"level 2: 12 labels cannot cover \(Z/3\^1\)"):
            serialize.system_from_json(obj)
        # an index list of the earlier layout is refused, whatever it holds
        for key in ("label_kind", "fibers", "free"):
            for value in ("synth", None, []):
                obj = serialize.system_to_json(s)
                obj[key] = value
                with pytest.raises(ValueError, match=f"with {key} is of the earlier layout"):
                    serialize.system_from_json(obj)

    @pytest.mark.parametrize("p,n_max", [(3, 4), (5, 3)])
    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_genuine_system_roundtrip(self, mode, shifted, p, n_max):
        k = n_max + 2
        torus = QuadraticTorus(p, "inert", 2)
        eig = EigenData.ordinary(p, k, 1)
        f0 = local_eigen_extend(p, k, 1, n_max, seed=p)
        form = f0 if mode == "vertex" else stabilize(f0, eig)
        shift = TorusElement(torus, k, x=2, y=1) if shifted else None
        s = from_tree(form, torus, eig, n_max, shift=shift)
        assert s.labels(2)[:2] == ["0|0", "0|1"]
        text = serialize.canonical_dumps(serialize.system_to_json(s))
        back = serialize.system_from_json(json.loads(text))
        assert back == s
        assert serialize.canonical_dumps(serialize.system_to_json(back)) == text

    def test_form_roundtrip(self):
        f = local_eigen_extend(3, 5, 2, 2, seed=1)
        back = serialize.form_from_json(serialize.form_to_json(f))
        assert back.tables == f.tables
        phi = stabilize(f, EigenData.ordinary(3, 5, 2))
        back_e = serialize.form_from_json(serialize.form_to_json(phi))
        assert back_e.tables == phi.tables
        # T shrinks the ball and U fills only part of the edges: a form on a
        # subset of its ball still reads back
        for g in (hecke_T(f), hecke_U(phi)):
            back_g = serialize.form_from_json(serialize.form_to_json(g))
            assert back_g.tables == g.tables
            assert back_g.domain == g.domain

    def test_orbit_table_rows(self):
        torus = QuadraticTorus(3, "inert", 2)
        tab = orbit_table(torus, 2)
        payload = serialize.orbit_table_to_json(tab)
        assert len(payload["rows"]) == 12
        taus = {r["h"][0] for r in payload["rows"]}
        digits = {r["h"][1] for r in payload["rows"]}
        assert taus == {0, 1, 2, 3}
        assert digits == {0, 1, 2}


# Runs BODY in a fresh interpreter, then prints the thetaforge submodules it
# loaded as a JSON list on the last line and exits with `code`.
_LOADED = """import json, sys
code = 0
{}
print(json.dumps(sorted(m.removeprefix("thetaforge.")
                        for m in sys.modules if m.startswith("thetaforge."))))
sys.exit(code)
"""
_RUN_CLI = "from thetaforge.cli import main\ncode = main(sys.argv[1:])"


# Runs BODY in a fresh interpreter, then prints which of hashlib, _hashlib
# (OpenSSL) and argparse it loaded, beyond what the interpreter had loaded
# before BODY, as a JSON list on the last line and exits with `code`.
_STDLIB = """import json, sys
code = 0
before = set(sys.modules)
{}
print(json.dumps(sorted({{"hashlib", "_hashlib", "argparse"}} & (set(sys.modules) - before))))
sys.exit(code)
"""


def last_json_line(program: str, *argv):
    """Run program in a fresh interpreter, which must exit 0, and read the
    JSON on its last line of output."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(thetaforge.__file__))}
    done = subprocess.run([sys.executable, "-c", program, *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_submodules(body: str, *argv) -> set:
    return set(last_json_line(_LOADED.format(body), *argv))


class TestLoadedModules:
    """Each command loads only the modules it runs."""

    def _artifact(self, capsys, argv, tmp_path) -> str:
        assert run(argv + ["--out", str(tmp_path)]) == 0
        return read_artifact_from_stdout(capsys)[1]

    def _lp(self, capsys, tmp_path) -> str:
        system = self._artifact(capsys, ["synth", "--mode", "edge", "--ap", "1", "--p", "3",
                                         "--k", "6", "--n-max", "3", "--seed", "4"], tmp_path)
        return self._artifact(capsys, ["lp", "--system", system, "--level", "3"], tmp_path)

    def test_import_loads_no_submodule(self):
        assert loaded_submodules("import thetaforge") == set()

    def test_tree_sphere(self, tmp_path):
        loaded = loaded_submodules(_RUN_CLI, "tree", "sphere", "--p", "3", "--r", "2",
                                   "--out", str(tmp_path))
        assert loaded == {"cli", "errors", "serialize", "tree", "util"}

    def test_mu(self, tmp_path, capsys):
        lp = self._lp(capsys, tmp_path)
        loaded = loaded_submodules(_RUN_CLI, "mu", "--element", lp, "--out", str(tmp_path))
        assert loaded == {"cli", "errors", "groupring", "padic", "serialize", "util"}

    def test_forms(self, tmp_path, capsys):
        form = self._artifact(capsys, ["forms", "eigen-extend", "--p", "3", "--k", "6",
                                       "--ap", "1", "--radius", "2"], tmp_path)
        for argv in (["forms", "eigen-extend", "--p", "3", "--k", "6", "--ap", "1",
                      "--radius", "2"],
                     ["forms", "stabilize", "--form", form, "--ap", "1"]):
            loaded = loaded_submodules(_RUN_CLI, *argv, "--out", str(tmp_path))
            assert "hecke" in loaded
            assert not loaded & {"measures", "groupring", "torus", "characters"}, argv

    def test_specialize(self, tmp_path, capsys):
        lp = self._lp(capsys, tmp_path)
        loaded = loaded_submodules(_RUN_CLI, "specialize", "--element", lp, "--character",
                                   '{"m": 1, "exponents": [1]}', "--out", str(tmp_path))
        assert "characters" in loaded
        assert not loaded & {"measures", "hecke", "torus", "tree"}

    def test_system_commands(self, tmp_path, capsys):
        # measures imports torus, hecke and tree inside from_tree, which no
        # system command runs, and the system's EigenData lives in padic
        synth = ["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "6",
                 "--n-max", "3", "--seed", "4"]
        system = self._artifact(capsys, synth, tmp_path)
        for argv in (synth, ["check-dist", "--system", system],
                     ["theta", "--system", system, "--level", "3", "--ordinary"],
                     ["lp", "--system", system, "--level", "3"]):
            loaded = loaded_submodules(_RUN_CLI, *argv, "--out", str(tmp_path))
            assert "measures" in loaded
            assert not loaded & {"torus", "hecke", "tree", "characters"}, argv


class TestStdlibLoads:
    """A process loads argparse only when it parses flags, and never hashlib
    or OpenSSL: an artifact's name comes from the interpreter's built-in
    SHA-256."""

    def test_importing_serialize_and_cli_loads_neither(self):
        assert last_json_line(_STDLIB.format("import thetaforge.serialize, thetaforge.cli")) == []

    def test_reading_an_artifact_loads_neither(self, tmp_path, capsys):
        assert run(["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "4", "--out", str(tmp_path)]) == 0
        path = read_artifact_from_stdout(capsys)[1]
        body = "from thetaforge import serialize\nserialize.read_artifact(sys.argv[1], 'system')"
        assert last_json_line(_STDLIB.format(body), path) == []

    def test_a_command_loads_both_and_writes_the_pinned_name(self, tmp_path):
        loaded = last_json_line(_STDLIB.format(_RUN_CLI), "tree", "dot", "--p", "3", "--r", "2",
                                "--out", str(tmp_path))
        assert loaded == ["argparse"]
        assert os.listdir(tmp_path) == ["dot-288f53732f8b714f.json"]


class TestArtifactNames:
    """An artifact is named by the first 16 hex digits of SHA-256 of its
    bytes, with hashlib as the oracle."""

    @pytest.mark.parametrize("data", [b"", b"thetaforge/1", b"0123456789abcdef" * (1 << 18)],
                             ids=["empty", "short", "4MB"])
    def test_helper_matches_hashlib(self, data):
        assert serialize._sha256_hex(data) == hashlib.sha256(data).hexdigest()

    def test_without_the_builtin_module_hashlib_names_the_same_file(self, tmp_path):
        body = 'sys.modules["_sha2"] = sys.modules["_sha256"] = None\n' + _RUN_CLI
        loaded = last_json_line(_STDLIB.format(body), "tree", "dot", "--p", "3", "--r", "2",
                                "--out", str(tmp_path))
        assert "hashlib" in loaded
        assert os.listdir(tmp_path) == ["dot-288f53732f8b714f.json"]

    def test_each_kind_of_a_chain_is_named_by_its_bytes(self, tmp_path, capsys):
        out = str(tmp_path)

        def call(*argv):
            assert run([*argv, "--out", out]) == 0
            return read_artifact_from_stdout(capsys)[1]

        system = call("synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "6",
                      "--n-max", "3", "--seed", "1")
        call("check-dist", "--system", system)
        call("theta", "--system", system, "--level", "3", "--ordinary")
        lp = call("lp", "--system", system, "--level", "3")
        call("specialize", "--element", lp, "--character", '{"m": 1, "exponents": [1]}')
        call("mu", "--element", lp)
        form = call("forms", "eigen-extend", "--ap", "1", "--radius", "2", "--p", "3",
                    "--k", "6", "--seed", "1")
        call("forms", "stabilize", "--form", form, "--ap", "1")
        call("tree", "sphere", "--r", "2", "--p", "3")
        names = os.listdir(out)
        assert {name.rsplit("-", 1)[0] for name in names} == {
            "system", "check-dist", "theta", "lp", "specialize", "mu", "form", "sphere"}
        for name in names:
            with open(os.path.join(out, name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            assert name.endswith(f"-{digest[:16]}.json"), name


# every name the package exports, by home module
EXPORTS = {
    "errors": ("CompatibilityViolation", "ConductorTooLarge", "DistributionViolation",
               "EmptyDomain", "InvariantViolation", "MissingEigenvalue", "NotDivisible",
               "NotOrdinary", "NotSupersingular", "PrecisionExhausted", "ThetaForgeError",
               "TransitivityViolation", "UnsupportedDelta"),
    "padic": ("CyclotomicValue", "EigenData", "PrecisionInt", "cyclotomic_sigma",
              "hensel_unit_root"),
    "tree": ("DirectedEdge", "Vertex", "ball", "distance", "geodesic_path", "neighbors",
             "origin", "sphere"),
    "torus": ("QuadraticTorus", "TorusElement", "base_sequence", "filtration_order",
              "orbit_table"),
    "groupring": ("GroupRingElement", "divide_omega_tilde", "mu_invariant", "project", "star",
                  "xi"),
    "hecke": ("EdgeForm", "VertexForm", "hecke_T", "hecke_U",
              "local_eigen_extend", "nu_invariant", "stabilize"),
    "measures": ("CompatibleSystem", "PadicLFunction", "ThetaElement", "check_distribution",
                 "from_tree", "lp", "pm_extract", "synth_system", "theta_level",
                 "theta_ordinary"),
    "characters": ("FiniteOrderCharacter", "HowardFamily", "howard_check",
                   "interpolation_shape", "period_sum", "specialize"),
}
EXPORTED = {name for names in EXPORTS.values() for name in names}


class TestPackageNamespace:
    def test_each_name_is_its_home_module_object(self):
        for home, names in EXPORTS.items():
            module = importlib.import_module(f"thetaforge.{home}")
            for name in names:
                assert getattr(thetaforge, name) is getattr(module, name), name

    def test_dir_and_star_import_list_the_names(self):
        assert EXPORTED <= set(dir(thetaforge))
        scope = {}
        exec("from thetaforge import *", scope)
        assert set(scope) - {"__builtins__"} == EXPORTED

    def test_unknown_name_is_an_attribute_error(self):
        assert not hasattr(thetaforge, "no_such_name")
        assert not hasattr(thetaforge, "star_identity_check")
        assert not hasattr(thetaforge, "IntPolynomial")
        with pytest.raises(AttributeError, match="no_such_name"):
            thetaforge.no_such_name

    def test_a_patched_attribute_is_returned(self, monkeypatch):
        from thetaforge import measures

        def patched(*args):
            return None

        monkeypatch.setattr(measures, "lp", patched)
        assert thetaforge.lp is patched

    def test_from_import_of_a_submodule(self):
        from thetaforge import tree

        assert tree is sys.modules["thetaforge.tree"]
        # in a fresh process, where the lazy namespace has not loaded it yet
        body = ("from thetaforge import tree\n"
                "code = tree is not sys.modules['thetaforge.tree']")
        assert loaded_submodules(body) == {"errors", "tree", "util"}
