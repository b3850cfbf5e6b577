"""Every LAPACK call of the package runs in one of the four owners of
``aaqpt.qstate`` (``_check_positive``, ``_svd``, ``_eigh`` and
``_linear_solve``), which turn a failed decomposition into a typed
AaqptError or, for the Cholesky test and the LU solve, into the fallback
the caller takes.  A ``LinAlgError`` injected into LAPACK must therefore
reach a public caller as a typed error, never bare."""

import ast
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from aaqpt import cli, extraction
from aaqpt.catalog import max_entangled
from aaqpt.channel import apply_extended, kraus_from_choi
from aaqpt.errors import AaqptError, NotPositiveError, SvdFailureError
from aaqpt.extraction import extract
from aaqpt.qstate import _eigh, fidelity, validate_density
from aaqpt.realignment import is_faithful, ppt_min_eigenvalue, singular_spectrum
from aaqpt.sampling import random_bipartite, random_channel
from aaqpt.serialize import state_to_json
from aaqpt.tomography import project_to_state

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aaqpt"
OWNERS = {"_check_positive", "_svd", "_eigh", "_linear_solve"}
# imported only by tests and the benchmark; ROADMAP item 12 moves it into
# tests/, with its qr and norm calls
EXEMPT = {"sampling.py"}


def linalg_sites(tree: ast.Module):
    """(function, line) of each ``linalg`` attribute or import in ``tree``,
    the function being the top-level one around it (None outside one)."""
    sites = []

    def visit(node, function):
        if function is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            sites.append((function, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            if any("linalg" in name for name in names):
                sites.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sites


def test_lapack_runs_only_in_its_owners():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT:
            continue
        for function, line in linalg_sites(ast.parse(path.read_text(), str(path))):
            if path.name != "qstate.py" or function not in OWNERS:
                stray.append(f"{path.name}:{line} in {function}")
    assert not stray, f"np.linalg outside the LAPACK owners: {stray}"
    # the check sees every owner's calls
    qstate = ast.parse((PACKAGE / "qstate.py").read_text())
    assert {function for function, _ in linalg_sites(qstate)} == OWNERS


def failing(*args, **kwargs):
    raise np.linalg.LinAlgError("injected failure")


@pytest.mark.parametrize("call", [
    lambda: is_faithful(random_bipartite(3, 3, 1)),
    lambda: singular_spectrum(np.eye(3)),
], ids=["is_faithful", "singular_spectrum"])
def test_svd_failure_is_typed(call):
    with mock.patch.object(np.linalg, "svd", failing), \
            pytest.raises(SvdFailureError, match="injected failure"):
        call()


RHO = validate_density(np.diag([0.75, 0.25]))
CHOI = 2 * max_entangled(2).matrix
BELL = max_entangled(2)


@pytest.mark.parametrize("routine, call", [
    ("eigh", lambda: fidelity(RHO, RHO)),
    ("eigvalsh", lambda: fidelity(RHO, RHO)),
    ("eigvalsh", lambda: ppt_min_eigenvalue(max_entangled(2))),
    ("eigh", lambda: kraus_from_choi(CHOI)),
    ("eigh", lambda: project_to_state(np.diag([1.2, -0.2]))),
    # a state that fails the Cholesky test, whose eigenvalues then decide
    ("eigvalsh", lambda: validate_density(np.diag([1.5, -0.5]))),
    # extract itself runs no eigensolver; the Choi spectrum's first read does
    ("eigvalsh", lambda: extract(BELL, BELL).choi_eigenvalues),
], ids=["fidelity-root", "fidelity", "ppt_min_eigenvalue", "kraus_from_choi",
        "project_to_state", "validate_density", "choi_eigenvalues"])
def test_eigensolver_failure_is_typed(routine, call):
    with mock.patch.object(np.linalg, routine, failing), \
            pytest.raises(AaqptError, match=f"{routine} did not converge: injected failure"):
        call()


def test_failed_cholesky_leaves_the_verdict_to_the_eigenvalues():
    with mock.patch.object(np.linalg, "cholesky", failing):
        assert validate_density(np.eye(3) / 3).dim == 3
        with pytest.raises(NotPositiveError):
            validate_density(np.diag([1.5, -0.5]))


@pytest.mark.parametrize("vectors", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_eigensolver_input_is_typed(bad, vectors):
    # LAPACK can return finite eigenvalues for a NaN entry, so the input is
    # checked as well as the eigenvalues
    with pytest.raises(AaqptError, match="input or eigenvalues beyond the float range"):
        _eigh(np.array([[1.0, bad], [0.0, 1.0]]), vectors)


@pytest.mark.parametrize("vectors", [True, False])
def test_finite_eigensolver_input_is_scanned_once(vectors):
    # _hermitian's scan of the Hermitian part decides finiteness for _eigh
    # too; the other scan is of the eigenvalues
    a = np.array([[2.0, 1j], [0.5, 1.0]])
    with mock.patch.object(np, "isfinite", wraps=np.isfinite) as isfinite:
        _eigh(a, vectors)
    assert isfinite.call_count == 2


def test_failed_lu_falls_back_to_the_reduced_svd():
    # a faithful square pair: LU solves it, and with LU failing the reduced
    # SVD gives the same M to round-off.  The bound 1e-13 is eps times the
    # condition number of the realignment (below 1e3, as its smallest
    # singular value exceeds 1e-3) with room; the gap measured is 3e-15
    for seed in range(5):
        rng = np.random.default_rng(seed)
        s = random_bipartite(3, 3, rng)
        assert is_faithful(s).spectrum.values[-1] > 1e-3
        out = apply_extended(random_channel(3, 2, rng), s)
        with mock.patch.object(extraction, "_svd", wraps=extraction._svd) as svd:
            by_lu = extract(s, out)
            with mock.patch.object(np.linalg, "solve", failing):
                by_svd = extract(s, out)
        assert svd.call_count == 1
        assert np.abs(by_svd.m.matrix - by_lu.m.matrix).max() <= 1e-13
        assert by_svd.residual <= 1e-13
        with mock.patch.object(np.linalg, "solve", failing), \
                mock.patch.object(np.linalg, "svd", failing), \
                pytest.raises(SvdFailureError, match="injected failure"):
            extract(s, out)


@pytest.mark.parametrize("mode", ["strict", "pseudo"])
@pytest.mark.parametrize("fill", [np.inf, 1e308])
def test_solve_beyond_the_float_range_is_typed(fill, mode):
    # a 1e308 fill is finite in the real basis and overflows only when M is
    # taken back to the natural one, so the natural M is what is tested;
    # neither fill may escape as an overflow or invalid-value warning
    rng = np.random.default_rng(0)
    s = random_bipartite(3, 3, rng)
    out = apply_extended(random_channel(3, 2, rng), s)
    with mock.patch.object(np.linalg, "solve", lambda a, b: np.full_like(b, fill)), \
            pytest.raises(AaqptError, match="extracted map beyond the float range"):
        extract(s, out, mode)


def test_cli_reports_a_failed_eigensolver(capsys):
    with mock.patch.object(np.linalg, "eigvalsh", failing):
        assert cli.main(["entangle-check", "--catalog", "sigmaE"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eigvalsh did not converge: injected failure\n"


def test_cli_reports_a_failed_choi_spectrum(capsys, tmp_path):
    # the extraction document reads the spectrum before anything is written
    paths = [tmp_path / name for name in ("in.json", "out.json", "doc.json")]
    for path in paths[:2]:
        path.write_text(json.dumps(state_to_json(BELL)))
    in_file, out_file, doc = map(str, paths)
    with mock.patch.object(np.linalg, "eigvalsh", failing):
        assert cli.main(["--out", doc, "extract", in_file, out_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eigvalsh did not converge: injected failure\n"
    assert not paths[2].exists()
