import json

import numpy as np
import pytest

from aaqpt import cli, serialize
from aaqpt.catalog import PAULI_X, horodecki, max_entangled, sigma_e
from aaqpt.channel import make_channel, superoperator
from aaqpt.errors import FileFormatError, NotUnitTraceError
from aaqpt.qstate import validate_density
from aaqpt.realignment import realign_check_matrix
from aaqpt.extraction import extract
from aaqpt.channel import apply_extended
from aaqpt.sampling import random_bipartite, random_channel, random_density
from aaqpt.tomography import run_experiment


class TestMatrixFormat:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(91)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        doc = json.loads(json.dumps(serialize.matrix_to_json(m)))
        assert np.array_equal(serialize.matrix_from_json(doc), m)

    def test_complex_scalar_encoding(self):
        doc = serialize.matrix_to_json(np.array([[1 + 2j]]))
        assert doc == [[[1.0, 2.0]]]

    @pytest.mark.parametrize(
        "layout",
        [
            lambda m: m.T,
            np.asfortranarray,
            lambda m: m[::-1, ::2],
            lambda m: np.real(m).T,
            lambda m: [list(row) for row in m],
        ],
        ids=["transposed", "fortran", "strided", "real-transposed", "nested-list"],
    )
    def test_any_layout_gives_the_entrywise_floats(self, layout):
        rng = np.random.default_rng(92)
        m = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        m[0, 0] = complex(-0.0, 0.0)
        source = layout(m)
        expected = [
            [[float(z.real), float(z.imag)] for z in row]
            for row in np.array(source, dtype=complex)
        ]
        doc = serialize.matrix_to_json(source)
        assert doc == expected
        assert json.dumps(doc) == json.dumps(expected)  # -0.0 and float type kept
        assert {type(x) for row in doc for pair in row for x in pair} == {float}

    def test_documents_of_transposed_matrices(self):
        rho = random_density(3, np.random.default_rng(93)).matrix
        u = np.array([[0, 1j], [1, 0]])
        states = (
            (serialize.density_to_json(validate_density(rho.T)), rho.T),
            (serialize.channel_to_json(make_channel([u.conj().T]))["kraus"][0], u.conj().T),
            (serialize.matrix_to_json(realign_check_matrix(np.kron(rho, rho), 3)),
             realign_check_matrix(np.kron(rho, rho), 3)),
        )
        for doc, m in states:
            doc = doc["matrix"] if isinstance(doc, dict) else doc
            assert np.array_equal(serialize.matrix_from_json(doc), m)

    def test_rejects_ragged_rows(self):
        with pytest.raises(FileFormatError):
            serialize.matrix_from_json([[[1, 0], [0, 0]], [[1, 0]]])

    def test_rejects_non_matrix(self):
        with pytest.raises(FileFormatError):
            serialize.matrix_from_json("nope")


class TestStateFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(92)
        s = random_bipartite(2, 3, rng)
        doc = json.loads(json.dumps(serialize.state_to_json(s)))
        back = serialize.state_from_json(doc)
        assert back.dim_a == 2 and back.dim_b == 3
        assert np.array_equal(back.matrix, s.matrix)

    def test_dims_key_layout(self):
        doc = serialize.state_to_json(max_entangled(2))
        assert doc["dims"] == [2, 2]
        assert len(doc["matrix"]) == 4

    def test_invalid_state_rejected(self):
        doc = {"dims": [2, 2], "matrix": serialize.matrix_to_json(np.eye(4))}
        with pytest.raises(NotUnitTraceError):
            serialize.state_from_json(doc)

    def test_missing_keys_rejected(self):
        with pytest.raises(FileFormatError):
            serialize.state_from_json({"matrix": []})


class TestDensityFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(93)
        rho = random_density(3, rng)
        back = serialize.density_from_json(
            json.loads(json.dumps(serialize.density_to_json(rho)))
        )
        assert np.array_equal(back.matrix, rho.matrix)

    def test_dim_consistency_checked(self):
        doc = {"dim": 3, "matrix": serialize.matrix_to_json(np.eye(2) / 2)}
        with pytest.raises(FileFormatError):
            serialize.density_from_json(doc)


class TestChannelFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(94)
        ch = random_channel(3, 2, rng)
        back = serialize.channel_from_json(
            json.loads(json.dumps(serialize.channel_to_json(ch)))
        )
        assert back.dim == 3
        for k1, k2 in zip(ch.kraus, back.kraus):
            assert np.array_equal(k1, k2)


class TestSuperoperatorFormat:
    def test_round_trip(self):
        m = superoperator(make_channel([np.eye(2) / np.sqrt(2), PAULI_X / np.sqrt(2)]))
        back = serialize.superop_from_json(
            json.loads(json.dumps(serialize.superop_to_json(m)))
        )
        assert back.dim == 2
        assert np.array_equal(back.matrix, m.matrix)

    def test_shape_checked(self):
        with pytest.raises(FileFormatError):
            serialize.superop_from_json(
                {"dim": 2, "matrix": serialize.matrix_to_json(np.eye(3))}
            )


def _valid_documents():
    bitflip = make_channel([np.eye(2) / np.sqrt(2), PAULI_X / np.sqrt(2)])
    return {
        "state": (serialize.state_from_json, serialize.state_to_json(max_entangled(2))),
        "density": (serialize.density_from_json, {"dim": 2, "matrix": serialize.matrix_to_json(np.eye(2) / 2)}),
        "channel": (serialize.channel_from_json, serialize.channel_to_json(bitflip)),
        "superoperator": (serialize.superop_from_json, serialize.superop_to_json(superoperator(bitflip))),
    }


def _with_dim(kind, value):
    def mutate(doc):
        if kind == "state":
            doc["dims"] = value
        else:
            doc["dim"] = value
    return mutate


def _with_entry(kind, entry):
    def mutate(doc):
        matrix = doc["kraus"][0] if kind == "channel" else doc["matrix"]
        matrix[0][0] = entry
    return mutate


_BAD_DIMS = {
    "state": [[None, 2], [-2, -2], [2.7, 2], [True, 4], ["a", 2], [0, 4], [2.0, 2]],
    "density": [None, -2, 0, 2.7, 2.0, True, "2"],
    "channel": [None, -2, 0, 2.7, 2.0, True, "2"],
    "superoperator": [None, -2, 0, 2.7, 2.0, True, "2"],
}
_BAD_ENTRIES = [[0.5, 0.0, "junk"], [0.5], 0.5, [True, 0], ["0.5", 0], [None, 0],
                [float("nan"), 0], [0.5, float("inf")], [10**400, 0]]
_MALFORMED = [
    pytest.param(kind, _with_dim(kind, value), id=f"{kind}-dim-{value!r}")
    for kind, values in _BAD_DIMS.items()
    for value in values
] + [
    pytest.param(kind, _with_entry(kind, entry), id=f"{kind}-entry-{i}")
    for kind in _BAD_DIMS
    for i, entry in enumerate(_BAD_ENTRIES)
]


class TestMalformedDocuments:
    @pytest.mark.parametrize("kind", sorted(_BAD_DIMS))
    def test_valid_document_loads(self, kind):
        load, doc = _valid_documents()[kind]
        load(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("kind, mutate", _MALFORMED)
    def test_rejected_as_file_format_error(self, kind, mutate):
        load, doc = _valid_documents()[kind]
        mutate(doc)
        with pytest.raises(FileFormatError):
            load(doc)


class TestDocumentPayloads:
    def test_extraction_document_keys(self):
        bell = max_entangled(2)
        ch = make_channel([np.eye(2) / np.sqrt(2), PAULI_X / np.sqrt(2)])
        res = extract(bell, apply_extended(ch, bell))
        doc = serialize.extraction_to_json(res)
        assert set(doc) == {
            "m", "mode", "residual", "truncatedCount", "inputSpectrum", "choiEigenvalues",
        }
        assert set(doc["inputSpectrum"]) == {"values", "sum", "rank", "threshold"}
        json.dumps(doc)

    @pytest.mark.parametrize("mode", ["strict", "pseudo"])
    def test_extraction_document_does_not_depend_on_read_order(self, mode, tmp_path, capsys):
        # the Choi spectrum is computed when first read: before the document
        # is built, while it is built, or by the CLI, the bytes are the same
        s = random_bipartite(3, 3, 21) if mode == "strict" else horodecki(0.4)
        out = apply_extended(random_channel(3, 2, 22), s)
        unread = serialize.extraction_to_json(extract(s, out, mode))
        result = extract(s, out, mode)
        assert result.choi_eigenvalues.size == 9
        assert json.dumps(serialize.extraction_to_json(result)) == json.dumps(unread)
        files = [tmp_path / "in.json", tmp_path / "out.json"]
        for path, state in zip(files, (s, out)):
            path.write_text(json.dumps(serialize.state_to_json(state)))
        argv = ["--json", "extract", *map(str, files), "--mode", mode]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == json.dumps(unread, indent=2) + "\n"

    def test_report_document_keys(self):
        rep = run_experiment(shots=0, batches=1, seed=1, exact=True)
        doc = serialize.report_to_json(rep)
        assert set(doc) >= {
            "shots", "batches", "seed", "noise", "fidelity_in", "fidelity_out",
            "probes", "batch_details", "rng",
        }
        assert set(doc["probes"]) == {"0", "1", "plus", "minus", "L", "R"}
        assert doc["rng"] == "pcg64"
        json.dumps(doc)

    def test_spectrum_payload(self):
        from aaqpt.realignment import singular_spectrum

        sp = singular_spectrum(np.eye(3))
        doc = serialize.spectrum_to_json(sp)
        assert doc["rank"] == 3
        assert doc["sum"] == pytest.approx(3.0)
        assert len(doc["values"]) == 3

    def test_verdict_payload(self):
        from aaqpt.realignment import is_faithful

        doc = serialize.verdict_to_json(is_faithful(sigma_e(0.5)))
        assert doc["faithful"] is False
        assert doc["kernelDimension"] == 2
        assert doc["requiredRank"] == 9
