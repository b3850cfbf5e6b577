"""Shared JSON wire formats.

Complex scalars are two-element ``[re, im]`` arrays, matrices are row-major
arrays of rows, and numbers are IEEE-754 doubles in decimal (Python's json
emits the shortest round-tripping decimal, so dump/load is bit-exact).

The CLI's text is exactly ``json.dumps(payload, indent=2)``, written by
:func:`_json_text`.

Dimensions are JSON integers >= 1 (``true`` is not one), and every matrix
entry is exactly two finite numbers; anything else raises
:class:`FileFormatError`.

Documents:

* bipartite state   ``{"dims": [dA, dB], "matrix": [[[re, im], ...], ...]}``
* density matrix    ``{"dim": d, "matrix": ...}``
* channel           ``{"dim": d, "kraus": [matrix, ...]}``
* superoperator     ``{"dim": d, "matrix": ...}``
* spectrum          ``{"values": [...], "sum": s, "rank": r, "threshold": t}``
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .channel import KrausChannel, Superoperator, make_channel
from .errors import FileFormatError
from .extraction import ExtractionResult
from .qstate import (
    DEFAULT_TOL, BipartiteState, DensityMatrix, as_matrix, bipartite, validate_density, _integer_in
)
from .realignment import FaithfulnessVerdict, SingularSpectrum
from .tomography import ExperimentReport


def matrix_to_json(m: np.ndarray) -> list:
    # a complex double is its [re, im] pair of doubles bit for bit; the
    # view needs rows in C order, which a transposed matrix does not have
    a = np.ascontiguousarray(as_matrix(m))
    return a.view(float).reshape(a.shape + (2,)).tolist()


def _dimension(value, what: str) -> int:
    if not _integer_in(value, 1):  # JSON true is not a dimension
        raise FileFormatError(f"{what} must be an integer >= 1, got {value!r}")
    return value


def matrix_from_json(obj) -> np.ndarray:
    layout = "matrix must be a non-empty array of rows of [re, im] entries"
    if not isinstance(obj, list) or not obj:
        raise FileFormatError(layout)
    try:
        parts = np.array(obj, dtype=object)
    except ValueError as exc:  # ragged rows or entries
        raise FileFormatError(layout) from exc
    if parts.ndim != 3 or parts.shape[2] != 2:
        raise FileFormatError(layout)
    bad = sorted(
        t.__name__
        for t in {type(x) for x in parts.flat}
        if t is bool or not issubclass(t, (int, float))
    )
    if bad:
        raise FileFormatError(f"matrix entries must be numbers, got {', '.join(bad)}")
    try:
        values = parts.astype(float)
    except OverflowError as exc:
        raise FileFormatError("matrix entry beyond the double range") from exc
    if not np.isfinite(values).all():
        raise FileFormatError("matrix entries must be finite numbers")
    # [re, im] pairs of doubles are complex doubles bit for bit
    return values.view(complex)[..., 0]


def _require_keys(obj, keys, what: str) -> None:
    if not isinstance(obj, dict):
        raise FileFormatError(f"{what} document must be a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise FileFormatError(f"{what} document lacks keys {missing}")


def state_to_json(s: BipartiteState) -> dict:
    return {"dims": [s.dim_a, s.dim_b], "matrix": matrix_to_json(s.matrix)}


def state_from_json(obj, tol: float = DEFAULT_TOL) -> BipartiteState:
    _require_keys(obj, ("dims", "matrix"), "state")
    dims = obj["dims"]
    if not (isinstance(dims, list) and len(dims) == 2):
        raise FileFormatError("state 'dims' must be a two-element array")
    dim_a, dim_b = (_dimension(d, "state 'dims' entry") for d in dims)
    return bipartite(matrix_from_json(obj["matrix"]), dim_a, dim_b, tol=tol)


def density_to_json(rho: DensityMatrix) -> dict:
    return {"dim": rho.dim, "matrix": matrix_to_json(rho.matrix)}


def density_from_json(obj, tol: float = DEFAULT_TOL) -> DensityMatrix:
    _require_keys(obj, ("dim", "matrix"), "density")
    d = _dimension(obj["dim"], "density 'dim'")
    rho = validate_density(matrix_from_json(obj["matrix"]), tol=tol)
    if rho.dim != d:
        raise FileFormatError(f"declared dim {d} != matrix dim {rho.dim}")
    return rho


def channel_to_json(ch: KrausChannel) -> dict:
    return {"dim": ch.dim, "kraus": [matrix_to_json(k) for k in ch.kraus]}


def channel_from_json(obj, tol: float = DEFAULT_TOL) -> KrausChannel:
    _require_keys(obj, ("dim", "kraus"), "channel")
    d = _dimension(obj["dim"], "channel 'dim'")
    if not isinstance(obj["kraus"], list) or not obj["kraus"]:
        raise FileFormatError("channel 'kraus' must be a non-empty array")
    ch = make_channel([matrix_from_json(k) for k in obj["kraus"]], tol=tol)
    if ch.dim != d:
        raise FileFormatError(f"declared dim {d} != Kraus dim {ch.dim}")
    return ch


def superop_to_json(m: Superoperator) -> dict:
    return {"dim": m.dim, "matrix": matrix_to_json(m.matrix)}


def superop_from_json(obj) -> Superoperator:
    _require_keys(obj, ("dim", "matrix"), "superoperator")
    d = _dimension(obj["dim"], "superoperator 'dim'")
    a = matrix_from_json(obj["matrix"])
    if a.shape != (d * d, d * d):
        raise FileFormatError(
            f"superoperator of dim {d} needs shape {(d * d, d * d)}, got {a.shape}"
        )
    return Superoperator(dim=d, matrix=a)


def spectrum_to_json(sp: SingularSpectrum) -> dict:
    return {
        "values": sp.values.tolist(),
        "sum": sp.sum,
        "rank": sp.rank,
        "threshold": sp.threshold,
    }


def verdict_to_json(v: FaithfulnessVerdict) -> dict:
    return {
        "faithful": v.faithful,
        "spectrum": spectrum_to_json(v.spectrum),
        "requiredRank": v.required_rank,
        "kernelDimension": v.kernel_dimension,
        "dimsEqual": v.dims_equal,
    }


def extraction_to_json(res: ExtractionResult) -> dict:
    return {
        "m": superop_to_json(res.m),
        "mode": res.mode,
        "residual": res.residual,
        "truncatedCount": res.truncated_count,
        "inputSpectrum": spectrum_to_json(res.input_spectrum),
        "choiEigenvalues": res.choi_eigenvalues.tolist(),
    }


def report_to_json(rep: ExperimentReport) -> dict:
    return {
        "shots": rep.shots,
        "batches": rep.batches,
        "seed": rep.seed,
        "exact": rep.exact,
        "noise": {
            "depolarizing1q": rep.noise.depolarizing_1q,
            "depolarizing2q": rep.noise.depolarizing_2q,
        },
        "rng": rep.rng_name,
        "fidelity_in": {"mean": rep.fidelity_in.mean, "band": rep.fidelity_in.band},
        "fidelity_out": {"mean": rep.fidelity_out.mean, "band": rep.fidelity_out.band},
        "probes": {
            name: {"mean": mb.mean, "band": mb.band}
            for name, mb in rep.probe_fidelities.items()
        },
        "batch_details": [
            {
                "batch": d.batch,
                "seed": d.seed,
                "status": d.status,
                "fidelity_in": d.fidelity_in,
                "fidelity_out": d.fidelity_out,
                "probes": dict(d.probe_fidelities),
                "rho_in": matrix_to_json(d.rho_in.matrix),
                "rho_out": matrix_to_json(d.rho_out.matrix),
            }
            for d in rep.batch_details
        ],
    }


# ------------------------------------------------------------- JSON text

_INDENT = "  "
_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")


class _Unwritten(Exception):
    """A key or value the writer leaves to ``json.dumps``."""


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2)``, byte for byte, without its
    pure-Python indenting encoder (before 3.13 the C encoder runs only when
    ``indent`` is None).  Lists of floats and rows of ``[re, im]`` pairs are
    written by one join or one format.  A non-str key, a value json does not
    know, or nesting too deep (a circular payload) is handed to
    ``json.dumps`` itself, which writes it or raises its own error."""
    out: list[str] = []
    try:
        _encode(payload, "\n", out)
    except (_Unwritten, RecursionError):
        return json.dumps(payload, indent=2)
    return "".join(out)


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _encode(o, nl: str, out: list) -> None:
    """Append the text of ``o``, whose lines start with ``nl``."""
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, (list, tuple)):
        _encode_list(o, nl, out)
    elif isinstance(o, dict):
        _encode_dict(o, nl, out)
    else:
        raise _Unwritten


def _leaf_list(lst, nl: str, inner: str) -> str | None:
    """The text of a list of floats or of a row of ``[re, im]`` float
    pairs, or None for any other list and for one holding nan or inf,
    which json spells ``NaN`` and ``Infinity``."""
    head = lst[0]
    sep = "," + inner
    try:
        if isinstance(head, float):
            body = sep.join(map(float.__repr__, lst))
        elif type(head) is list:
            if set(map(type, lst)) != {list} or set(map(len, lst)) != {2}:
                return None
            pair_nl = inner + _INDENT
            pair = "[" + pair_nl + "%s," + pair_nl + "%s" + inner + "]"
            body = sep.join([pair] * len(lst)) % tuple(
                map(float.__repr__, chain.from_iterable(lst))
            )
        else:
            return None
    except TypeError:  # an item that is not a float
        return None
    if "n" in body:  # finite float reprs have no letter n
        return None
    return "[" + inner + body + nl + "]"


def _encode_list(lst, nl: str, out: list) -> None:
    if not lst:
        out.append("[]")
        return
    inner = nl + _INDENT
    text = _leaf_list(lst, nl, inner)
    if text is not None:
        out.append(text)
        return
    sep = "," + inner
    out.append("[" + inner)
    for i, value in enumerate(lst):
        if i:
            out.append(sep)
        _encode(value, inner, out)
    out.append(nl + "]")


def _encode_dict(dct, nl: str, out: list) -> None:
    if not dct:
        out.append("{}")
        return
    inner = nl + _INDENT
    sep = "," + inner
    out.append("{")
    for i, (key, value) in enumerate(dct.items()):
        if not isinstance(key, str):
            raise _Unwritten
        out.append((sep if i else inner) + _encode_str(key) + ": ")
        _encode(value, inner, out)
    out.append(nl + "}")
