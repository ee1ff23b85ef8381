import argparse
import json
import os
import resource
import subprocess
import sys

import pytest

import thetaforge
from thetaforge import serialize
from thetaforge.cli import build_parser, load_config, main
from thetaforge.groupring import delta_element, one, zero
from thetaforge.hecke import EigenData, hecke_T, hecke_U, local_eigen_extend, stabilize
from thetaforge.measures import check_distribution, from_tree, synth_system
from thetaforge.torus import QuadraticTorus, TorusElement, orbit_table


def run(argv):
    return main(argv)


def read_artifact_from_stdout(capsys):
    out = capsys.readouterr().out
    path = [l for l in out.splitlines() if l.startswith("artifact:")][0].split(": ", 1)[1]
    return out, path


def _cap_address_space():
    """Limit the calling process to 1 GiB of address space."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))


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
        u_phi = hecke_U(phi)
        for e in u_phi.tables[0]:
            assert u_phi.tables[0][e] == eig.alpha * phi.tables[0][e]
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
        key = sorted(level)[0]
        level[key] = str((int(level[key]) + 1) % 3**6)
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        assert run(["check-dist", "--system", bad_path, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "DistributionViolation"
        assert "layer" in err["error"]["detail"]["violation"]

    @pytest.mark.parametrize("damage", ["envelope-list", "levels-cut", "level-number",
                                        "fibers-null", "fiber-parent", "fiber-missing"])
    def test_malformed_system_is_a_typed_error(self, tmp_path, capsys, damage):
        # fibers-null used to end check-dist in a TypeError and the other two
        # fiber damages in a bare KeyError; theta read all three
        assert run(["synth", "--mode", "vertex", "--ap", "0", "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "1", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(sys_path))
        fibers = obj["payload"]["fibers"]
        if damage == "envelope-list":
            obj = []
        elif damage == "levels-cut":
            obj["payload"]["levels"] = obj["payload"]["levels"][:2]
        elif damage == "level-number":
            obj["payload"]["levels"][1] = 5
        elif damage == "fibers-null":
            fibers[2] = None
        elif damage == "fiber-parent":
            fibers[3][sorted(fibers[3])[0]] = "9|9"
        else:
            del fibers[3][sorted(fibers[3])[0]]
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        for command in (["check-dist"], ["theta", "--level", "3"]):
            assert run([*command, "--system", bad_path, "--out", str(tmp_path)]) == 1
            err = json.loads(capsys.readouterr().out.strip())
            assert err["error"]["type"] == "ValueError"
            if damage.startswith("fiber"):
                assert "level" in err["error"]["detail"]

    def test_repeated_level_label_is_a_typed_error(self, tmp_path, capsys):
        assert run(["synth", "--mode", "vertex", "--ap", "0", "--p", "3", "--k", "6",
                    "--n-max", "3", "--seed", "1", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(sys_path))
        bad_path = os.path.join(str(tmp_path), "bad.json")
        write_with_repeated_key(bad_path, obj, obj["payload"]["levels"][2])
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

    @pytest.mark.parametrize("damage,command", [
        ("repeated", "stabilize"),      # the later value used to win
        ("outside", "nu"),              # used to count the stray value
        ("outside", "stabilize"),       # used to drop it
        ("outside-edge", "nu"),
    ])
    def test_stray_form_entry_is_a_typed_error(self, tmp_path, capsys, damage, command):
        assert run(["forms", "eigen-extend", "--p", "3", "--k", "6", "--ap", "1",
                    "--radius", "2", "--seed", "2", "--out", str(tmp_path)]) == 0
        _, form_path = read_artifact_from_stdout(capsys)
        if damage == "outside-edge":
            assert run(["forms", "stabilize", "--form", form_path, "--ap", "1",
                        "--out", str(tmp_path)]) == 0
            _, form_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(form_path))
        entries = obj["payload"]["entries"]
        if damage == "repeated":
            entries.append({"w": entries[0]["w"],
                            "values": [str(int(entries[0]["values"][0]) + 1)]})
        elif damage == "outside":
            entries.append({"w": {"a": 5, "b": 0, "u": 0}, "values": ["1"]})
        else:
            # (2,0,0) -> (3,0,0) runs from the boundary sphere out of the ball
            entries.append({"w": {"source": {"a": 2, "b": 0, "u": 0},
                                  "target": {"a": 3, "b": 0, "u": 0}}, "values": ["1"]})
        bad_path = os.path.join(str(tmp_path), "bad.json")
        json.dump(obj, open(bad_path, "w"))
        extra = ["--ap", "1"] if command == "stabilize" else []
        assert run(["forms", command, "--form", bad_path, *extra, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"]["type"] == "ValueError"

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

    def test_malformed_free_digits_are_a_typed_error(self, tmp_path, capsys):
        assert run(["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "9",
                    "--n-max", "4", "--delta", "2", "--seed", "3", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        good = json.load(open(sys_path))
        for damage in ([0], [0, 0, 0], [0, 27]):
            obj = json.loads(json.dumps(good))
            free = obj["payload"]["free"][4]
            free[sorted(free)[0]] = damage
            bad_path = os.path.join(str(tmp_path), "bad.json")
            json.dump(obj, open(bad_path, "w"))
            assert run(["theta", "--system", bad_path, "--level", "4", "--ordinary",
                        "--out", str(tmp_path)]) == 1
            err = json.loads(capsys.readouterr().out.strip())
            assert err["error"]["type"] == "ValueError"


    @pytest.mark.parametrize("exp", [4, 40])
    def test_level_exp_off_the_tower_is_a_typed_error(self, tmp_path, capsys, exp):
        # level 3 has free quotient Z/9; read as Z/81 it used to give an
        # 81-coefficient theta, and a huge exponent allocated p^exp of them
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
        assert err["error"]["type"] == "ValueError"
        assert "level 3" in err["error"]["detail"]

    @pytest.mark.parametrize("value", [2.7, True])
    def test_non_integer_system_coefficient_is_a_typed_error(self, tmp_path, capsys, value):
        # int() used to truncate 2.7 to 2 and read true as 1
        assert run(["synth", "--mode", "edge", "--ap", "1", "--p", "3", "--k", "6",
                    "--n-max", "3", "--out", str(tmp_path)]) == 0
        _, sys_path = read_artifact_from_stdout(capsys)
        obj = json.load(open(sys_path))
        level = obj["payload"]["levels"][3]
        level[sorted(level)[0]] = value
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
        # the witness remainder its own long division.
        def emit(*argv):
            assert run([*argv, "--out", str(tmp_path)]) == 0
            return os.path.basename(read_artifact_from_stdout(capsys)[1])

        system = str(tmp_path / emit("synth", "--mode", "edge", "--ap", "1", "--p", "3",
                                     "--k", "11", "--n-max", "7", "--seed", "7"))
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
        # content hashes of systems read off the tree, written when from_tree
        # built edge orbit tables and free digit tuples; reading the orbits
        # off the ball's ids and storing flat group indices must not change a byte
        def name(system):
            # and each still reads back, level_exp checked against its tower
            assert serialize.system_from_json(serialize.system_to_json(system)) == system
            return os.path.basename(serialize.write_artifact(
                str(tmp_path), "system", serialize.system_to_json(system)))

        torus = QuadraticTorus(3, "inert", 2)
        eig = EigenData.ordinary(3, 9, 1)
        edge = from_tree(stabilize(local_eigen_extend(3, 9, 1, 5, seed=4), eig), torus, eig, 5)
        assert name(edge) == "system-5d94a832b0e06d56.json"
        vertex = from_tree(local_eigen_extend(3, 9, 0, 5, seed=4), torus,
                           EigenData.supersingular(3, 9), 5)
        assert name(vertex) == "system-b9c11ee487f5138a.json"
        t5 = QuadraticTorus(5, "inert", 2)
        e5 = EigenData.ordinary(5, 7, 2)
        shifted = from_tree(stabilize(local_eigen_extend(5, 7, 2, 3, seed=1), e5), t5, e5, 3,
                            shift=TorusElement(t5, 7, x=2, y=1))
        assert name(shifted) == "system-78b1a281fe99559c.json"


class TestSerialization:
    def test_unknown_schema_refused(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "thetaforge/999", "kind": "system",
                                    "payload": {}}))
        with pytest.raises(ValueError):
            serialize.read_artifact(str(path), "system")

    def test_system_roundtrip(self):
        s = synth_system(3, 6, "edge", EigenData.ordinary(3, 6, 1), 3, seed=2)
        back = serialize.system_from_json(serialize.system_to_json(s))
        assert back == s
        assert check_distribution(back).ok

    def test_delta_two_free_indices_roundtrip(self):
        # flat group indices in memory, digit lists on the wire
        s = synth_system(3, 7, "edge", EigenData.ordinary(3, 7, 1), 3, delta=2, seed=4)
        obj = serialize.system_to_json(s)
        for j in (1, 2, 3):
            q = 3 ** s.level_exp[j]
            for lbl, idx in s.free[j].items():
                assert obj["free"][j][lbl] == [idx // q, idx % q]
                assert 0 <= idx < q * q
        assert obj["free"][3]["2|4,7"] == [4, 7] and s.free[3]["2|4,7"] == 4 * 9 + 7
        back = serialize.system_from_json(json.loads(json.dumps(obj)))
        assert back == s
        assert serialize.system_to_json(back) == obj
        for damage in ([9, 0], [0, -1], [1], [1, 2, 3], ["1", "2"]):
            bad = json.loads(json.dumps(obj))
            bad["free"][3]["2|4,7"] = damage
            with pytest.raises(ValueError, match="free digits at level 3|malformed system"):
                serialize.system_from_json(bad)

    def test_genuine_system_roundtrip(self):
        torus = QuadraticTorus(3, "inert", 2)
        eig = EigenData.ordinary(3, 6, 1)
        f0 = local_eigen_extend(3, 6, 1, 2, seed=3)
        s = from_tree(stabilize(f0, eig), torus, eig, 2)
        back = serialize.system_from_json(serialize.system_to_json(s))
        assert back == s

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
