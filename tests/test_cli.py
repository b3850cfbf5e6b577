import json

import numpy as np
import pytest

from aaqpt.catalog import PAULI_X, max_entangled, sigma_e
from aaqpt.channel import apply_extended, make_channel
from aaqpt.cli import main
from aaqpt.qstate import tensor
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

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_json(max_entangled(2))))
        code, doc = run_json(capsys, ["faithful", "--file", str(path)])
        assert code == 0 and doc["faithful"] is True

    def test_garbage_file_exit_four(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("this is not json")
        code, _ = run(capsys, ["faithful", "--file", str(path)])
        assert code == 4

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
        code, _ = run(capsys, ["faithful", "--catalog", "nosuch"])
        assert code == 2

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
