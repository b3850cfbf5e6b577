"""Tests of the benchmark's own references, checkers and tracer.

Run with ``python3 -m pytest bench``.
"""

import copy
import json

import numpy as np
import pytest

import aaqpt
import aaqpt.cli
import aaqpt.extraction
import aaqpt.realignment
import aaqpt.serialize
import aaqpt.tomography
import reference as ref
import workloads
from reference import CheckError
from tracer import Tracer


def test_bitflip_superop_is_the_analytic_matrix():
    analytic = np.array(
        [[0.5, 0, 0, 0.5], [0, 0.5, 0.5, 0], [0, 0.5, 0.5, 0], [0.5, 0, 0, 0.5]]
    )
    assert np.array_equal(ref.bitflip_superop(), analytic)
    kraus = [ref.I2 / np.sqrt(2), ref.X / np.sqrt(2)]
    np.testing.assert_allclose(ref.kraus_superop(kraus), analytic, atol=1e-15)


@pytest.mark.parametrize("p", [0.2, 0.35, 0.5, 0.8])
def test_sigma_e_reference_reproduces_the_analytic_spectrum(p):
    values = np.linalg.svd(ref.realign(ref.sigma_e_matrix(p), 3, 3), compute_uv=False)
    np.testing.assert_allclose(values, ref.sigma_e_spectrum(p), atol=1e-15)
    assert np.count_nonzero(ref.sigma_e_spectrum(p) > 1e-12) == 7


def test_apply_on_a_matches_kron_form():
    rng = np.random.default_rng(0)
    rho = ref.random_density(6, rng)
    kraus = ref.random_kraus(2, 3, rng)
    want = sum(np.kron(k, np.eye(3)) @ rho @ np.kron(k, np.eye(3)).conj().T for k in kraus)
    np.testing.assert_allclose(ref.apply_on_a(kraus, rho, 2, 3), want, atol=1e-15)


def test_realign_solve_recovers_the_superoperator():
    rng = np.random.default_rng(1)
    rho = ref.random_density(9, rng)
    kraus = ref.random_kraus(3, 2, rng)
    r_in = ref.realign(rho, 3, 3)
    r_out = ref.realign(ref.apply_on_a(kraus, rho, 3, 3), 3, 3)
    np.testing.assert_allclose(r_out @ np.linalg.inv(r_in), ref.kraus_superop(kraus), atol=1e-10)


def test_noiseless_register_states_are_bell_and_bitflipped_bell():
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    psi = np.array([0, 1, 1, 0]) / np.sqrt(2)
    rho_in, rho_out = ref.register_states(0.0, 0.0)
    np.testing.assert_allclose(rho_in, np.outer(phi, phi), atol=1e-15)
    np.testing.assert_allclose(rho_out, (np.outer(phi, phi) + np.outer(psi, psi)) / 2, atol=1e-15)
    kraus = [ref.I2 / np.sqrt(2), ref.X / np.sqrt(2)]
    np.testing.assert_allclose(ref.apply_on_a(kraus, rho_in, 2, 2), rho_out, atol=1e-15)


def test_noisy_register_states_are_mixed_states():
    rho_in, rho_out = ref.register_states(0.01, 0.03)
    for m in (rho_in, rho_out):
        ref.check_density("noisy", m)
    assert np.trace(rho_in @ rho_in).real < 1 - 1e-3


def test_check_density_rejects_each_violation():
    rho = np.diag([0.5, 0.5]).astype(complex)
    ref.check_density("ok", rho)
    for bad in (rho + np.array([[0, 1e-3], [0, 0]]), rho * 1.001, np.diag([1.001, -0.001])):
        with pytest.raises(CheckError):
            ref.check_density("bad", bad)


# ---------------------------------------------------------------- checkers


def _moved(a, by=1e-3):
    a = np.array(a, dtype=complex)
    a[1, 2] += by
    return a


@pytest.fixture(scope="module")
def extract_case():
    w = workloads.ExtractLarge()
    w.prepare(np.random.default_rng(2))
    inp = w.next_input()
    verdict, out, result = w.run(inp)
    rho, _, index = inp
    return dict(
        faithful=verdict.faithful,
        rank=verdict.spectrum.rank,
        applied=out.matrix,
        m=result.m.matrix,
        truncated=result.truncated_count,
        rho=rho,
        kraus=w.kraus[index],
        m_reference=w.m_reference[index],
    )


def test_extract_checker_accepts_the_program_output(extract_case):
    workloads.check_extract_large(**extract_case)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("m", lambda c: _moved(c["m"])),
        ("applied", lambda c: _moved(c["applied"], 1e-9)),
        ("rank", lambda c: c["rank"] - 1),
        ("faithful", lambda c: False),
        ("truncated", lambda c: 1),
    ],
)
def test_extract_checker_rejects_a_perturbed_result(extract_case, field, bad):
    case = dict(extract_case, **{field: bad(extract_case)})
    with pytest.raises(CheckError):
        workloads.check_extract_large(**case)


@pytest.fixture(scope="module")
def experiment_case():
    w = workloads.ExperimentShots()
    w.prepare(np.random.default_rng(3))
    seed = w.next_input()
    doc = aaqpt.serialize.report_to_json(w.run(seed))
    return doc, w.rho_in, w.rho_out, w.bound


def test_experiment_checker_accepts_the_program_output(experiment_case):
    workloads.check_experiment(*experiment_case)


def _set_rho(doc, name, m):
    doc["batch_details"][4][name] = ref.state_document(m, 2, 2)["matrix"]


@pytest.mark.parametrize(
    "perturb",
    [
        lambda d, rin, rout: d["batch_details"][0].update(status="failed: boom"),
        lambda d, rin, rout: _set_rho(d, "rho_in", rin + np.diag([1e-3, 0, 0, 0])),
        lambda d, rin, rout: _set_rho(d, "rho_in", rout),
        lambda d, rin, rout: _set_rho(d, "rho_out", np.eye(4) / 4),
        lambda d, rin, rout: d["batch_details"][7]["probes"].update(minus=0.5),
        lambda d, rin, rout: d["batch_details"][7]["probes"].update(minus=1.001),
        lambda d, rin, rout: d["batch_details"].pop(),
    ],
    ids=["status", "trace", "swapped", "mixed", "probe-floor", "probe-above-one", "batch-count"],
)
def test_experiment_checker_rejects_a_perturbed_result(experiment_case, perturb):
    doc, rho_in, rho_out, bound = experiment_case
    doc = copy.deepcopy(doc)
    perturb(doc, rho_in, rho_out)
    with pytest.raises(CheckError):
        workloads.check_experiment(doc, rho_in, rho_out, bound)


@pytest.fixture()
def cli_case(tmp_path):
    w = workloads.CliQutrit(tmp_path)
    w.prepare(np.random.default_rng(4))
    inp = w.next_input()
    results = w.run(inp)
    p, grid, pair, _ = inp
    written = {
        name: json.loads((w.work / f"{name}.json").read_text())
        for name in ("sigmaE", "horodecki", "m")
    }
    case = dict(
        codes=[code for code, _ in results],
        texts=[text for _, text in results],
        written=written,
        p=float(p),
        grid=[float(x) for x in grid.split(",")],
        m_reference=w.m_reference[pair],
    )
    return case


def test_cli_checker_accepts_the_program_output(cli_case):
    workloads.check_cli_session(**cli_case)


def _edit_doc(case, index, edit):
    doc = json.loads(case["texts"][index])
    edit(doc)
    case["texts"][index] = json.dumps(doc)


def _move_sigma_value(doc):
    doc["spectrum"]["values"][1] += 1e-3


def _move_m_entry(doc):
    doc["m"]["matrix"][1][2][0] += 1e-3


@pytest.mark.parametrize(
    "perturb",
    [
        lambda c: c["codes"].__setitem__(2, 0),
        lambda c: _edit_doc(c, 2, _move_sigma_value),
        lambda c: _edit_doc(c, 2, lambda d: d.update(kernelDimension=1)),
        lambda c: _edit_doc(c, 3, lambda d: d.update(kernelDimension=0)),
        lambda c: _edit_doc(c, 4, lambda d: d.update(ppt_min_eigenvalue=-1e-3)),
        lambda c: _edit_doc(c, 5, _move_m_entry),
        lambda c: _edit_doc(c, 6, lambda rows: rows[0].update(kernel_dimension=2)),
        lambda c: c["written"]["m"].update(mode="pseudo"),
    ],
    ids=["exit-code", "sigmaE-value", "sigmaE-kernel", "horodecki-kernel", "ppt",
         "extracted-M", "sweep-kernel", "written-file"],
)
def test_cli_checker_rejects_a_perturbed_result(cli_case, perturb):
    perturb(cli_case)
    with pytest.raises(CheckError):
        workloads.check_cli_session(**cli_case)


# ------------------------------------------------------------------ tracer


def test_tracer_wraps_every_namespace_and_restores_it():
    original = aaqpt.extraction.extract
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        wrapped = aaqpt.extraction.extract
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert aaqpt.tomography.extract is wrapped
        assert aaqpt.extract is wrapped
        assert aaqpt.tomography._tomograph.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert aaqpt.extraction.extract is original
    assert aaqpt.tomography.extract is original
    assert aaqpt.extract is original


def test_tracer_folds_calls_inside_a_module_and_times_the_rest():
    state = aaqpt.catalog.max_entangled(3)
    tracer = Tracer()
    tracer.install()
    try:
        aaqpt.realignment.is_faithful(state)
    finally:
        tracer.uninstall()
    assert tracer.calls["realignment.is_faithful"] == 1
    assert "realignment.realign" not in tracer.calls
    assert "realignment.singular_spectrum" not in tracer.calls
    assert tracer.calls["qstate.as_matrix"] >= 1
    assert all(v >= 0 for v in tracer.self_ns.values())
    aaqpt.realignment.is_faithful(state)
    assert tracer.calls["realignment.is_faithful"] == 1


@pytest.mark.parametrize("seed", [-7, 0, 2**70])
def test_any_integer_seed_prepares_the_same_inputs(seed, tmp_path):
    import run

    draws = []
    for _ in range(2):
        w = run.prepare("cli_qutrit", seed, tmp_path)
        draws.append(w.next_input()[:3])
    assert draws[0] == draws[1]
