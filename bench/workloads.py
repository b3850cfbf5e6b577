"""The three benchmark workloads.

Each workload is a closed loop of identical operations: ``prepare`` makes
the inputs from the seed's generator, ``next_input`` draws the next
operation's fresh inputs (outside the timed call), ``run`` is the timed
operation, ``check`` compares its output with the independent references
in :mod:`reference`, and ``final_check`` runs once per run, untimed.

The program is always reached through module attributes looked up at call
time (``aaqpt.tomography.run_experiment``), so the tracer's wrappers see
every call.  The ``check_*`` functions take plain arrays and JSON
documents, so tests can feed them perturbed results.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import aaqpt.channel
import aaqpt.cli
import aaqpt.extraction
import aaqpt.qstate
import aaqpt.realignment
import aaqpt.serialize
import aaqpt.tomography

import reference as ref
from reference import check, check_close, check_density

WARMUP_OPS = 3


# ------------------------------------------------------- experiment_shots

SHOTS = 10240
BATCHES = 10
NOISE_1Q = 0.01
NOISE_2Q = 0.03
PROBES = ("0", "1", "plus", "minus", "L", "R")


def check_experiment(doc: dict, rho_in: np.ndarray, rho_out: np.ndarray, bound: float) -> None:
    """Check a ``report_to_json`` document against the exact noisy states."""
    batches = doc["batch_details"]
    check(len(batches) == BATCHES, f"{len(batches)} batches, expected {BATCHES}")
    for b in batches:
        n = b["batch"]
        check(b["status"] == "ok", f"batch {n}: status {b['status']!r}")
        for name, exact in (("rho_in", rho_in), ("rho_out", rho_out)):
            est = ref.matrix_from_document(b[name])
            check_density(f"batch {n} {name}", est)
            dist = float(np.linalg.norm(est - exact))
            check(dist <= bound, f"batch {n} {name}: |est - exact|_F = {dist:.3g} > {bound:.3g}")
        check(sorted(b["probes"]) == sorted(PROBES), f"batch {n}: probes {sorted(b['probes'])}")
        for probe, fid in b["probes"].items():
            check(
                ref.PROBE_FIDELITY_FLOOR <= fid <= 1 + ref.FIDELITY_ROUNDOFF,
                f"batch {n} probe {probe}: fidelity {fid} outside "
                f"[{ref.PROBE_FIDELITY_FLOOR}, 1 + {ref.FIDELITY_ROUNDOFF}]",
            )


class ExperimentShots:
    """``run_experiment(10240, 10, seed)`` under depolarizing noise, with a
    fresh seed for every operation."""

    def prepare(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.noise = aaqpt.tomography.NoiseModel(NOISE_1Q, NOISE_2Q)
        self.rho_in, self.rho_out = ref.register_states(NOISE_1Q, NOISE_2Q)
        self.bound = ref.shot_noise_bound(SHOTS // BATCHES)

    def next_input(self) -> int:
        return int(self.rng.integers(2**31))

    def run(self, seed: int):
        return aaqpt.tomography.run_experiment(SHOTS, BATCHES, seed, self.noise)

    def check(self, seed: int, report) -> None:
        doc = aaqpt.serialize.report_to_json(report)
        check(doc["seed"] == seed, f"report seed {doc['seed']} != {seed}")
        check_experiment(doc, self.rho_in, self.rho_out, self.bound)

    def final_check(self) -> None:
        seed = self.next_input()
        first, second = (
            json.dumps(aaqpt.serialize.report_to_json(self.run(seed)), sort_keys=True)
            for _ in range(2)
        )
        check(first == second, f"seed {seed}: two runs gave different reports")


# ---------------------------------------------------------- extract_large

DIM = 12
KRAUS_COUNT = 3
CHANNEL_POOL = 8
APPLY_TOL = 1e-12
M_TOL = 1e-8


def check_extract_large(
    faithful: bool,
    rank: int,
    applied: np.ndarray,
    m: np.ndarray,
    truncated: int,
    rho: np.ndarray,
    kraus,
    m_reference: np.ndarray,
) -> None:
    check(faithful and rank == DIM * DIM, f"faithful={faithful}, rank {rank} != {DIM * DIM}")
    check_close("apply_extended", applied, ref.apply_on_a(kraus, rho, DIM, DIM), APPLY_TOL)
    check_close("extracted M", m, m_reference, M_TOL)
    check(truncated == 0, f"truncated_count {truncated} != 0")


class ExtractLarge:
    """A fresh full-rank state on 12 x 12 and a channel from a pool of
    eight, through ``is_faithful``, ``apply_extended`` and strict
    ``extract``."""

    def prepare(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.kraus = [ref.random_kraus(DIM, KRAUS_COUNT, rng) for _ in range(CHANNEL_POOL)]
        self.m_reference = [ref.kraus_superop(k) for k in self.kraus]
        self.channels = [aaqpt.channel.make_channel(k) for k in self.kraus]

    def next_input(self):
        rho = ref.random_density(DIM * DIM, self.rng)
        state = aaqpt.qstate.bipartite(rho, DIM, DIM)
        return rho, state, int(self.rng.integers(CHANNEL_POOL))

    def run(self, inp):
        _, state, index = inp
        verdict = aaqpt.realignment.is_faithful(state)
        out = aaqpt.channel.apply_extended(self.channels[index], state)
        result = aaqpt.extraction.extract(state, out, mode="strict")
        return verdict, out, result

    def check(self, inp, output) -> None:
        rho, _, index = inp
        verdict, out, result = output
        check_extract_large(
            verdict.faithful,
            verdict.spectrum.rank,
            out.matrix,
            result.m.matrix,
            result.truncated_count,
            rho,
            self.kraus[index],
            self.m_reference[index],
        )

    def final_check(self) -> None:
        pass


# ------------------------------------------------------------- cli_qutrit

PAIR_POOL = 8
SIGMA_E_TOL = 1e-12
#: (name, expected exit code) of the session's calls, in order.
SESSION = (
    ("catalog sigmaE", 0),
    ("catalog horodecki", 0),
    ("faithful sigmaE", 3),
    ("faithful horodecki", 3),
    ("entangle-check horodecki", 0),
    ("extract", 0),
    ("bound-sweep", 0),
)


def session_argv(work: Path, p: str, a: str, pair: int, grid: str) -> list[list[str]]:
    """The session's argument lists, in the order of :data:`SESSION`."""
    sig, hor, m_out = str(work / "sigmaE.json"), str(work / "horodecki.json"), str(work / "m.json")
    pair_in, pair_out = str(work / f"in{pair}.json"), str(work / f"out{pair}.json")
    return [
        ["--json", "--out", sig, "catalog", "sigmaE", "--p", p],
        ["--json", "--out", hor, "catalog", "horodecki", "--a", a],
        ["--json", "faithful", "--file", sig],
        ["--json", "faithful", "--file", hor],
        ["--json", "entangle-check", "--file", hor],
        ["--json", "--out", m_out, "extract", pair_in, pair_out],
        ["--json", "bound-sweep", "--a-grid", grid],
    ]


def check_cli_session(
    codes: list[int],
    texts: list[str],
    written: dict,
    p: float,
    grid: list[float],
    m_reference: np.ndarray,
) -> None:
    """Check one session: exit codes, the JSON each call printed (in the
    order of :data:`SESSION`) and the documents written with ``--out``."""
    check(len(codes) == len(SESSION), f"{len(codes)} calls, expected {len(SESSION)}")
    for (name, want), got in zip(SESSION, codes):
        check(got == want, f"{name}: exit code {got}, expected {want}")
    docs = [json.loads(text) for text in texts]
    sig_state, hor_state, sig_verdict, hor_verdict, entangle, extracted, sweep = docs
    check(written["sigmaE"] == sig_state, "catalog sigmaE: --out file differs from stdout")
    check(written["horodecki"] == hor_state, "catalog horodecki: --out file differs from stdout")
    check(written["m"] == extracted, "extract: --out file differs from stdout")
    check_close("sigmaE matrix", ref.matrix_from_document(sig_state["matrix"]),
                ref.sigma_e_matrix(p), SIGMA_E_TOL)
    check_close("sigmaE singular values", sig_verdict["spectrum"]["values"],
                ref.sigma_e_spectrum(p), SIGMA_E_TOL)
    check(sig_verdict["kernelDimension"] == 2,
          f"sigmaE kernelDimension {sig_verdict['kernelDimension']} != 2")
    check(hor_verdict["kernelDimension"] == 1,
          f"horodecki kernelDimension {hor_verdict['kernelDimension']} != 1")
    check(entangle["ppt_min_eigenvalue"] >= -1e-9,
          f"horodecki ppt_min_eigenvalue {entangle['ppt_min_eigenvalue']} < -1e-9")
    check(extracted["truncatedCount"] == 0, f"extract truncatedCount {extracted['truncatedCount']}")
    check_close("extracted M", ref.matrix_from_document(extracted["m"]["matrix"]),
                m_reference, M_TOL)
    check([row["a"] for row in sweep] == grid, f"bound-sweep rows {[r['a'] for r in sweep]} != {grid}")
    for row in sweep:
        check(row["kernel_dimension"] == 1,
              f"bound-sweep a={row['a']}: kernel_dimension {row['kernel_dimension']} != 1")


class CliQutrit:
    """One fixed session of in-process ``aaqpt.cli.main`` calls on the
    two-qutrit examples, with fresh parameters for every operation.  Its
    files live in ``work``, which the caller creates and removes."""

    def __init__(self, work: Path):
        self.work = work

    def prepare(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.m_reference = []
        for k in range(PAIR_POOL):
            rho = ref.random_density(9, rng)
            kraus = ref.random_kraus(3, 2, rng)
            for name, m in ((f"in{k}", rho), (f"out{k}", ref.apply_on_a(kraus, rho, 3, 3))):
                (self.work / f"{name}.json").write_text(json.dumps(ref.state_document(m, 3, 3)))
            self.m_reference.append(ref.kraus_superop(kraus))

    def next_input(self):
        p = f"{self.rng.uniform(0.2, 0.8):.6f}"
        a = f"{self.rng.uniform(0.1, 0.9):.6f}"
        grid = ",".join(f"{x:.6f}" for x in np.sort(self.rng.uniform(0.1, 0.9, 3)))
        pair = int(self.rng.integers(PAIR_POOL))
        return p, grid, pair, session_argv(self.work, p, a, pair, grid)

    def run(self, inp):
        results = []
        for argv in inp[3]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = aaqpt.cli.main(argv)
            results.append((code, out.getvalue()))
        return results

    def check(self, inp, results) -> None:
        p, grid, pair, _ = inp
        written = {
            name: json.loads((self.work / f"{name}.json").read_text())
            for name in ("sigmaE", "horodecki", "m")
        }
        check_cli_session(
            [code for code, _ in results],
            [text for _, text in results],
            written,
            float(p),
            [float(x) for x in grid.split(",")],
            self.m_reference[pair],
        )

    def final_check(self) -> None:
        pass


def make(name: str, work: Path):
    """A fresh, unprepared instance of the named workload."""
    if name == "experiment_shots":
        return ExperimentShots()
    if name == "extract_large":
        return ExtractLarge()
    if name == "cli_qutrit":
        return CliQutrit(work)
    raise ValueError(f"unknown workload {name!r}")
