import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aaqpt
from aaqpt import extraction, realignment, serialize
from aaqpt.catalog import PAULI_X, horodecki, max_entangled, sigma_e
from aaqpt.channel import apply_extended, make_channel
from aaqpt.cli import build_parser, main
from aaqpt.extraction import extract
from aaqpt.qstate import partial_trace, tensor
from aaqpt.realignment import is_faithful, ppt_min_eigenvalue
from aaqpt.sampling import random_bipartite
from aaqpt.serialize import state_to_json


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code = main(["--json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def bitflip_files(tmp_path):
    bell = max_entangled(2)
    ch = make_channel([np.eye(2) / np.sqrt(2), PAULI_X / np.sqrt(2)])
    out_state = apply_extended(ch, bell)
    in_file = tmp_path / "in.json"
    out_file = tmp_path / "out.json"
    in_file.write_text(json.dumps(state_to_json(bell)))
    out_file.write_text(json.dumps(state_to_json(out_state)))
    return str(in_file), str(out_file)


class TestFaithfulCommand:
    def test_bell_is_faithful_exit_zero(self, capsys):
        code, doc = run_json(capsys, ["faithful", "--catalog", "bell2"])
        assert code == 0
        assert doc["faithful"] is True
        assert doc["spectrum"]["rank"] == 4

    def test_unfaithful_exit_three(self, capsys):
        code, doc = run_json(capsys, ["faithful", "--catalog", "sigmaE", "--p", "0.5"])
        assert code == 3
        assert doc["faithful"] is False
        assert doc["kernelDimension"] == 2

    def test_zero_tolerance_keeps_the_kernel(self, capsys):
        code, doc = run_json(capsys, ["faithful", "--catalog", "sigmaE", "--tol", "0"])
        assert code == 3
        assert doc["kernelDimension"] == 2
        assert doc["spectrum"]["threshold"] == 0.0

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_json(max_entangled(2))))
        code, doc = run_json(capsys, ["faithful", "--file", str(path)])
        assert code == 0 and doc["faithful"] is True

    @pytest.mark.parametrize("dims, code", [((2, 3), 0), ((3, 2), 3)])
    def test_unequal_dimensions_follow_the_rank_rule(self, capsys, tmp_path, dims, code):
        # a 2x3 state reaches rank dA^2 = 4; a 3x2 state has rank <= 4 < 9
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_json(random_bipartite(*dims, 32))))
        assert run(capsys, ["faithful", "--file", str(path)])[0] == code

    @pytest.mark.parametrize("dims", [[None, 2], [-2, -2], [2.7, 2], [True, 4], ["a", 2]])
    def test_malformed_dims_exit_four(self, capsys, tmp_path, dims):
        doc = state_to_json(max_entangled(2))
        doc["dims"] = dims
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code = main(["faithful", "--file", str(path)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: ") and "Traceback" not in err

    def test_garbage_file_exit_four(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("this is not json")
        code, _ = run(capsys, ["faithful", "--file", str(path)])
        assert code == 4

    def test_non_utf8_file_exit_four(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"dims": [2, 2], "matrix": "\xff"}')
        code = main(["faithful", "--file", str(path)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_file_exit_four(self, capsys, tmp_path):
        code, _ = run(capsys, ["faithful", "--file", str(tmp_path / "none.json")])
        assert code == 4

    def test_invalid_state_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"dims": [2, 2], "matrix": [[[1.0, 0.0]] * 4] * 4}
        path.write_text(json.dumps(doc))
        code, _ = run(capsys, ["faithful", "--file", str(path)])
        assert code == 2

    def test_unknown_catalog_exit_two(self, capsys):
        assert main(["faithful", "--catalog", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown catalog state 'nosuch'; available: bell2, bell3, horodecki, sigmaE" in err

    def test_bad_parameter_exit_two(self, capsys):
        code, _ = run(capsys, ["faithful", "--catalog", "sigmaE", "--p", "1.5"])
        assert code == 2


class TestEntangleCheckCommand:
    def test_bell(self, capsys):
        code, doc = run_json(capsys, ["entangle-check", "--catalog", "bell2"])
        assert code == 0
        assert doc["ccnr_sum"] == pytest.approx(2.0, abs=1e-10)
        assert doc["verdict"] == "entangled"

    def test_bound_entangled_family(self, capsys):
        code, doc = run_json(capsys, ["entangle-check", "--catalog", "horodecki", "--a", "0.5"])
        assert code == 0
        assert doc["ppt_min_eigenvalue"] >= -1e-10
        assert doc["verdict"] == "entangled"  # detected by the CCNR sum

    def test_product_state_inconclusive(self, capsys, tmp_path):
        from aaqpt.qstate import bipartite

        v = np.kron([1, 0], [1, 0]).astype(complex)
        state = bipartite(np.outer(v, v), 2, 2)
        path = tmp_path / "prod.json"
        path.write_text(json.dumps(state_to_json(state)))
        code, doc = run_json(capsys, ["entangle-check", "--file", str(path)])
        assert code == 0
        assert doc["verdict"] == "inconclusive"


class TestExtractAndPredict:
    def test_extract_writes_reference_map(self, capsys, tmp_path, bitflip_files):
        in_file, out_file = bitflip_files
        m_file = tmp_path / "m.json"
        code, doc = run_json(
            capsys, ["--out", str(m_file), "extract", in_file, out_file]
        )
        assert code == 0
        m = np.array(
            [[complex(re, im) for re, im in row] for row in doc["m"]["matrix"]]
        )
        expected = (tensor(np.eye(2), np.eye(2)) + tensor(PAULI_X, PAULI_X)) / 2
        assert np.abs(m - expected).max() < 1e-10
        assert json.loads(m_file.read_text())["mode"] == "strict"

    def test_predict_named_probe(self, capsys, tmp_path, bitflip_files):
        in_file, out_file = bitflip_files
        m_file = tmp_path / "m.json"
        run(capsys, ["--out", str(m_file), "extract", in_file, out_file])
        code, doc = run_json(capsys, ["predict", str(m_file), "--probe", "0"])
        assert code == 0
        m = np.array(
            [[complex(re, im) for re, im in row] for row in doc["matrix"]]
        )
        assert np.allclose(m, np.eye(2) / 2, atol=1e-10)

    def test_strict_extraction_unfaithful_exit_three(self, capsys, tmp_path):
        s = sigma_e(0.5)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(state_to_json(s)))
        code, _ = run(capsys, ["extract", str(path), str(path), "--mode", "strict"])
        assert code == 3

    def test_pseudo_extraction_succeeds_on_unfaithful(self, capsys, tmp_path):
        s = sigma_e(0.5)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(state_to_json(s)))
        code, doc = run_json(capsys, ["extract", str(path), str(path), "--mode", "pseudo"])
        assert code == 0
        assert doc["truncatedCount"] == 2

    def test_predict_passes_zero_tolerance(self, capsys, tmp_path, bitflip_files, monkeypatch):
        import aaqpt.cli as cli

        in_file, out_file = bitflip_files
        m_file = tmp_path / "m.json"
        run(capsys, ["--out", str(m_file), "extract", in_file, out_file])
        seen = []
        real_predict = cli.predict_output

        def spy(m, probe, tol):
            seen.append(tol)
            return real_predict(m, probe, tol=tol)

        monkeypatch.setattr(cli, "predict_output", spy)
        run(capsys, ["predict", str(m_file), "--probe", "0", "--tol", "0"])
        run(capsys, ["predict", str(m_file), "--probe", "0"])
        assert seen == [0.0, 1e-7]


class TestToleranceFlags:
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_faithful_rejects_bad_threshold(self, capsys, tol):
        # --tol -1 used to print "faithful: yes" for the unfaithful sigma_E
        code = main(["faithful", "--catalog", "sigmaE", "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "threshold must be a finite number >= 0" in captured.err

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_extract_rejects_bad_threshold(self, capsys, tmp_path, tol):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(state_to_json(sigma_e(0.5))))
        assert main(["extract", str(path), str(path), "--tol", tol]) == 2
        assert "threshold must be a finite number >= 0" in capsys.readouterr().err

    def test_predict_rejects_bad_tolerance(self, capsys, tmp_path, bitflip_files):
        in_file, out_file = bitflip_files
        m_file = tmp_path / "m.json"
        run(capsys, ["--out", str(m_file), "extract", in_file, out_file])
        assert main(["predict", str(m_file), "--probe", "0", "--tol", "nan"]) == 2
        err = capsys.readouterr().err
        assert "tol must be a finite number >= 0" in err
        assert "not a physical state" not in err


# one argument list per subcommand that prints a payload; IN and OUT stand
# for the bit-flip pair's files
PAYLOAD_COMMANDS = {
    "catalog-list": ["catalog"],
    "catalog-export": ["catalog", "sigmaE", "--p", "0.3"],
    "faithful": ["faithful", "--catalog", "sigmaE", "--p", "0.3"],
    "extract": ["extract", "IN", "OUT"],
    "bound-sweep": ["bound-sweep", "--a-grid", "0.2,0.5"],
    "experiment-failed-batches": ["experiment", "--shots", "8", "--batches", "8", "--seed", "5"],
}


def command_result(argv):
    """The CommandResult of ``argv``, computed without ``main``."""
    args = build_parser().parse_args(argv)
    return args.func(args)


class TestOutFile:
    @pytest.mark.parametrize("command", PAYLOAD_COMMANDS)
    @pytest.mark.parametrize("json_flag", [["--json"], []])
    def test_catalog_file_bytes_equal_stdout(self, capsys, tmp_path, json_flag, command,
                                              bitflip_files):
        files = dict(zip(("IN", "OUT"), bitflip_files))
        argv = [files.get(a, a) for a in PAYLOAD_COMMANDS[command]]
        path = tmp_path / "payload.json"
        result = command_result(argv)
        code, out = run(capsys, json_flag + ["--out", str(path)] + argv)
        assert code == result.exit_code
        text = json.dumps(result.payload, indent=2) + "\n"
        assert path.read_bytes() == text.encode()
        if json_flag:
            assert out == text

    def test_extract_file_bytes_equal_stdout(self, capsys, tmp_path, bitflip_files):
        path = tmp_path / "m.json"
        code, out = run(capsys, ["--json", "--out", str(path), "extract", *bitflip_files])
        assert code == 0
        assert path.read_bytes() == out.encode()
        assert json.loads(out)["mode"] == "strict"

    def test_payload_is_encoded_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        real_json_text = serialize._json_text

        def counting_json_text(payload):
            calls.append(1)
            return real_json_text(payload)

        monkeypatch.setattr(serialize, "_json_text", counting_json_text)
        run(capsys, ["--json", "--out", str(tmp_path / "s.json"), "catalog", "bell2"])
        assert len(calls) == 1


class TestExperimentCommand:
    def test_exact_mode(self, capsys):
        code, doc = run_json(capsys, ["experiment", "--exact"])
        assert code == 0
        assert doc["fidelity_in"]["mean"] == pytest.approx(1.0, abs=1e-9)
        assert doc["fidelity_out"]["mean"] == pytest.approx(1.0, abs=1e-9)
        for probe in doc["probes"].values():
            assert probe["mean"] == pytest.approx(1.0, abs=1e-9)

    def test_seeded_run_deterministic(self, capsys):
        code_a, doc_a = run_json(
            capsys, ["experiment", "--shots", "2560", "--batches", "5", "--seed", "7"]
        )
        code_b, doc_b = run_json(
            capsys, ["experiment", "--shots", "2560", "--batches", "5", "--seed", "7"]
        )
        assert code_a == code_b == 0
        assert doc_a == doc_b

    def test_indivisible_shots_exit_two(self, capsys):
        code, _ = run(capsys, ["experiment", "--shots", "100", "--batches", "7"])
        assert code == 2

    def test_bad_noise_exit_two(self, capsys):
        code, _ = run(capsys, ["experiment", "--noise-1q", "1.5"])
        assert code == 2

    def test_negative_seed_exit_two(self, capsys):
        assert main(["experiment", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "seed must be a non-negative integer, got -1" in err
        assert "Traceback" not in err


class TestBoundSweepCommand:
    def test_csv_output(self, capsys):
        code, out = run(capsys, ["bound-sweep", "--a-grid", "0.25,0.5,0.75"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("a,kernel_dimension,ppt_min_eigenvalue,ccnr_sum,sv0")
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            assert int(cells[1]) == 1  # kernel dimension
            assert float(cells[2]) >= -1e-10  # ppt min

    def test_json_payload(self, capsys):
        code, rows = run_json(capsys, ["bound-sweep", "--a-grid", "0.5"])
        assert code == 0
        assert rows[0]["kernel_dimension"] == 1
        assert len(rows[0]["singular_values"]) == 9

    def test_grid_validation(self, capsys):
        code, _ = run(capsys, ["bound-sweep", "--a-grid", "0.5,1.5"])
        assert code == 2

    def test_rows_are_the_verdict_without_factor_svd(self, capsys, monkeypatch):
        # the sweep prints the spectrum and kernel dimension of is_faithful:
        # no factor SVD and no SVD with vectors runs
        def refuse(*args, **kwargs):
            raise AssertionError("bound-sweep took a factor SVD")

        for module in (realignment, extraction):
            monkeypatch.setattr(module, "_schmidt_factors", refuse)
        svd = mock.Mock(wraps=realignment._svd)
        monkeypatch.setattr(realignment, "_svd", svd)
        grid = [0.125, 0.5, 0.875]
        code, rows = run_json(capsys, ["bound-sweep", "--a-grid", ",".join(map(str, grid))])
        assert code == 0
        assert all(call.kwargs == {"compute_uv": False} for call in svd.call_args_list)
        for a, row in zip(grid, rows, strict=True):
            state = horodecki(a)
            verdict = is_faithful(state)
            assert row == {
                "a": a,
                "kernel_dimension": verdict.kernel_dimension,
                "ppt_min_eigenvalue": ppt_min_eigenvalue(state),
                "ccnr_sum": verdict.spectrum.sum,
                "singular_values": verdict.spectrum.values.tolist(),
            }


class TestCatalogCommand:
    def test_listing(self, capsys):
        code, rows = run_json(capsys, ["catalog"])
        assert code == 0
        names = {row["name"] for row in rows}
        assert names == {"bell2", "bell3", "sigmaE", "horodecki"}

    def test_export_round_trips(self, capsys, tmp_path):
        out = tmp_path / "state.json"
        code, _ = run(capsys, ["--out", str(out), "catalog", "sigmaE", "--p", "0.3"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["dims"] == [3, 3]
        code, verdict = run_json(capsys, ["faithful", "--file", str(out)])
        assert code == 3 and verdict["kernelDimension"] == 2

    @pytest.mark.parametrize("name, params, expected", [
        ("bell2", [], lambda: max_entangled(2)),
        ("bell3", [], lambda: max_entangled(3)),
        ("sigmaE", ["--p", "0.3"], lambda: sigma_e(0.3)),
        ("horodecki", ["--a", "0.7"], lambda: horodecki(0.7)),
    ])
    def test_each_entry_exports_its_state(self, capsys, name, params, expected):
        code, doc = run_json(capsys, ["catalog", name] + params)
        assert code == 0
        assert doc == json.loads(json.dumps(state_to_json(expected())))

    def test_unknown_name_exit_two(self, capsys):
        assert main(["catalog", "nosuch"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unknown catalog state 'nosuch'" in err


class TestParserReuse:
    def test_calls_do_not_share_state(self, capsys):
        code, doc = run_json(capsys, ["catalog", "sigmaE", "--p", "0.3"])
        assert code == 0
        assert main(["faithful", "--tol", "not-a-number"]) == 2
        capsys.readouterr()
        code, default = run_json(capsys, ["catalog", "sigmaE"])
        assert code == 0
        assert default == json.loads(json.dumps(state_to_json(sigma_e(0.5))))
        assert doc != default


class TestTolEnvOverride:
    def test_env_tolerance_applies(self, capsys, tmp_path, monkeypatch):
        # a state 1e-6 away from unit trace: rejected by default, accepted
        # under a loosened global tolerance
        m = max_entangled(2).matrix.copy()
        m[0, 0] += 1e-6
        doc = {"dims": [2, 2], "matrix": [[[z.real, z.imag] for z in row] for row in m]}
        path = tmp_path / "near.json"
        path.write_text(json.dumps(doc))
        code, _ = run(capsys, ["faithful", "--file", str(path)])
        assert code == 2
        monkeypatch.setenv("AAQPT_DEFAULT_TOL", "1e-4")
        code, _ = run(capsys, ["faithful", "--file", str(path)])
        assert code == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
    def test_malformed_env_tolerance_rejected(self, capsys, tmp_path, monkeypatch, value):
        path = tmp_path / "bell.json"
        path.write_text(json.dumps(state_to_json(max_entangled(2))))
        monkeypatch.setenv("AAQPT_DEFAULT_TOL", value)
        assert main(["faithful", "--file", str(path)]) == 2
        assert "AAQPT_DEFAULT_TOL" in capsys.readouterr().err


class TestModuleEntryPoint:
    """``python -m aaqpt`` runs the CLI with its documented exit codes."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(aaqpt.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "aaqpt", *argv],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_faithful_state_exits_zero(self):
        proc = self.run_module("faithful", "--catalog", "bell2")
        assert proc.returncode == 0
        assert proc.stdout.startswith("faithful: yes")

    def test_unfaithful_state_exits_three(self):
        proc = self.run_module("faithful", "--catalog", "sigmaE", "--p", "0.5")
        assert proc.returncode == 3
        assert proc.stdout.startswith("faithful: no")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Input files for the CLI fuzz: valid documents of each kind, broken
    ones, a missing path, and places ``--out`` can and cannot write."""
    root = tmp_path_factory.mktemp("fuzz")
    bell = max_entangled(2)
    ch = make_channel([np.eye(2) / np.sqrt(2), PAULI_X / np.sqrt(2)])
    out_state = apply_extended(ch, bell)
    docs = {
        "bell.json": state_to_json(bell),
        "sigma.json": state_to_json(sigma_e(0.5)),
        "flipped.json": state_to_json(out_state),
        "qubit.json": state_to_json(random_bipartite(2, 3, 5)),
        "extraction.json": serialize.extraction_to_json(extract(bell, out_state)),
        "superop.json": serialize.superop_to_json(extract(bell, out_state).m),
        "probe.json": serialize.density_to_json(partial_trace(out_state, "B")),
        "qutrit-probe.json": serialize.density_to_json(partial_trace(sigma_e(0.5), "B")),
    }
    for name, doc in docs.items():
        (root / name).write_text(json.dumps(doc))
    (root / "garbage.json").write_text("{")
    (root / "binary.json").write_bytes(b"\xff\xfe")
    (root / "unnormalized.json").write_text(
        json.dumps({"dims": [2, 2], "matrix": [[[2.0 if i == j else 0.0, 0.0]
                                                for j in range(4)] for i in range(4)]}))
    broken = ["garbage.json", "binary.json", "unnormalized.json", "missing.json"]
    outs = [str(root / "out.json"), str(root), str(root / "no-such-dir" / "out.json")]
    return [str(root / name) for name in docs], [str(root / name) for name in broken], outs


def _numbers():
    return st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.integers(-10**6, 10**6).map(str),
        st.sampled_from(["abc", "", "1e-9", "0", "-0.0", "1e400", "0.5", "1"]),
    )


@st.composite
def _argv(draw, inputs, broken, outs):
    """An argv over the seven subcommands and their flags, mostly well
    formed; shots and batches are bounded so that no run is large."""
    files = st.sampled_from(inputs) | st.sampled_from(broken)
    names = st.sampled_from(["bell2", "bell3", "sigmaE", "horodecki", "nope"])
    numbers = _numbers()
    params = {"--p": numbers, "--a": numbers}
    options = {
        "faithful": {"--file": files, "--catalog": names, "--tol": numbers, **params},
        "entangle-check": {"--file": files, "--catalog": names, **params},
        "extract": {"--mode": st.sampled_from(["strict", "pseudo", "exact"]),
                    "--tol": numbers},
        "predict": {"--probe": st.sampled_from(["0", "1", "plus", "minus", "L", "R", "Q"]),
                    "--probe-file": files, "--tol": numbers},
        "experiment": {"--shots": st.integers(-8, 10**5).map(str),
                       "--batches": st.integers(-2, 1000).map(str),
                       "--seed": st.integers(-2, 2**70).map(str),
                       "--noise-1q": numbers, "--noise-2q": numbers, "--exact": None},
        "bound-sweep": {"--a-grid": st.lists(numbers, max_size=4).map(",".join)},
        "catalog": params,
    }
    positional = {"extract": st.tuples(files, files), "predict": st.tuples(files),
                  "catalog": st.lists(names, max_size=1)}
    command = draw(st.sampled_from(sorted(options)))
    argv = []
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(outs))]
    argv += [command, *draw(positional.get(command, st.just(())))]
    flags = draw(st.lists(st.sampled_from(sorted(options[command])), max_size=4))
    for flag in flags:
        value = options[command][flag]
        argv += [flag] if value is None else [flag, draw(value)]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--help", "--bogus", "extra"])))
    return argv


class TestCliFuzz:
    """Drawn argv lists and AAQPT_DEFAULT_TOL values end in a documented
    exit code, never in a traceback."""

    @settings(max_examples=150)
    @given(data=st.data(), env_tol=st.one_of(st.none(), _numbers()))
    def test_every_call_exits_with_a_documented_code(self, fuzz_files, data, env_tol):
        argv = data.draw(_argv(*fuzz_files), label="argv")
        env = {} if env_tol is None else {"AAQPT_DEFAULT_TOL": env_tol}
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            if env_tol is None:
                os.environ.pop("AAQPT_DEFAULT_TOL", None)
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv, code)
        assert "Traceback" not in stderr.getvalue()
