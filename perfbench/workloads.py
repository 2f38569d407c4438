"""The four benchmark workloads, driven through homgrow's public functions.

Each workload builds its inputs in the constructor (the set-up that
``setup_s`` times) and computes one complete, verified result per call of
``run_pass``: every tower level, or every corpus instance, once.  A pass
records the time of every operation and one exact-result digest per
operation; an operation fails when it raises or its digest misses the
recorded reference.

Why these workloads (see README.md for the layer table):

* circle_tower - largest index, 2 nonzeros per row, torsion-free; dense
  IntMatrix plumbing, the Smith pivot rescan over unit factors, and the
  index^2 storage of base change and the Laplacian.
* torus3_tower - the FK structure route (det_bareiss_psd on kernel Grams,
  Smith forms), alpha Fraction algebra and the Laplacian check.
* mapping_torus_tower - the only torsion: Smith forms on big integers with
  non-unit invariant factors, rho_Z != 0.
* small_corpus - thousands of <= 6x6 instances from the verification suites:
  per-call overhead, the Cauchy-Binet minor-sum FK route, finite_homology.
"""

from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction
from math import comb

TOWER_PRIMES = (2, 3, 5)
MAPPING_TORUS_A = ((2, 1), (1, 1))

# name -> (complex, full levels, smoke levels); levels are quotient moduli.
TOWERS = {
    "circle_tower": ("circle",
                     [(2 ** k,) for k in range(1, 10)],
                     [(2 ** k,) for k in range(0, 5)]),
    "torus3_tower": ("torus3",
                     [(2, 2, 2), (4, 4, 2), (4, 4, 4)],
                     [(2, 2, 2)]),
    "mapping_torus_tower": ("mapping_torus",
                            [(50,), (100,), (200,)],
                            [(5,)]),
}

# instance kind -> (full count, smoke count); "nu" takes the first n of the
# fixed quotient-complex cases below instead of seeded instances.
CORPUS_MIX = {
    "rho": (400, 5),
    "fk": (1000, 8),
    "gh": (120, 3),
    "mu": (80, 3),
    "nu": (5, 1),
}

WORKLOADS = tuple(TOWERS) + ("small_corpus",)


class CheckFailed(Exception):
    """An output of the program misses an independent check."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canon(x) -> str:
    """Canonical text of an exact result (ints, Fractions, nested sequences)."""
    if isinstance(x, bool) or x is None:
        return repr(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, str):
        return repr(x)
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{canon(x[k])}" for k in sorted(x)) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    raise TypeError(f"no canonical form for {type(x).__name__}")


class PassResult:
    """Timings and per-operation digests of one pass."""

    def __init__(self):
        self.total_ns = 0        # the whole pass, checks included
        self.op_ns = []
        self.digests = {}        # operation id -> digest or None if it raised
        self.table_digest = None
        self.failed = set()      # operation ids that raised or missed a check
        self.errors = []

    @property
    def attempted(self) -> int:
        return len(self.digests)


def _noop(op_id) -> None:
    pass


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

def level_digests(csv_text: str) -> list:
    """Digest per tower level: its rows re-indexed as level 0, with header.

    A one-level tower's CSV gives the same digest as that level's rows in
    the full table, so one reference list checks both.
    """
    lines = csv_text.split("\n")
    header = lines[0]
    blocks = {}
    for line in lines[1:]:
        if line:
            level, rest = line.split(",", 1)
            blocks.setdefault(int(level), []).append("0," + rest)
    return [sha256("\n".join([header] + blocks[k]) + "\n")
            for k in sorted(blocks)]


def det_power_minus_identity(A, i: int) -> int:
    """det(A^i - I) of a 2x2 integer matrix, by repeated multiplication."""
    (a, b), (c, d) = A
    p, q, r, s = 1, 0, 0, 1
    for _ in range(i):
        p, q, r, s = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return (p - 1) * (s - 1) - q * r


class TowerWorkload:
    def __init__(self, name: str, seed: int, smoke: bool = False):
        from homgrow import exact_linalg, group_ring
        self.name = name
        self.seed = seed              # the tower inputs do not depend on it
        kind, full, small = TOWERS[name]
        moduli = small if smoke else full
        if kind == "circle":
            self.complex = group_ring.circle_complex()
        elif kind == "torus3":
            self.complex = group_ring.torus_complex(3)
        else:
            A = exact_linalg.IntMatrix.from_rows(MAPPING_TORUS_A)
            self.complex = group_ring.mapping_torus_complex(A)
        self.specs = [group_ring.QuotientSpec(m) for m in moduli]
        self.torsion_oracle = None
        if kind == "mapping_torus":
            self.torsion_oracle = [
                abs(det_power_minus_identity(MAPPING_TORUS_A, m[0]))
                for m in moduli]

    def _table(self, specs):
        from homgrow import growth, serialize
        report = growth.run_tower(self.complex, specs, primes=TOWER_PRIMES,
                                  jobs=1)
        header, rows = serialize.tower_report_rows(report)
        return report, serialize.tower_rows_to_csv(header, rows)

    def _check(self, res: PassResult, op_ids, levels, report, csv_text,
               ref) -> None:
        digests = level_digests(csv_text)
        if len(digests) != len(levels):
            raise CheckFailed(f"{len(digests)} levels in the table, "
                              f"expected {len(levels)}")
        for op_id, k, got, lv in zip(op_ids, levels, digests, report.levels):
            res.digests[op_id] = got
            if ref is not None and got != ref["levels"][k]:
                res.failed.add(op_id)
                res.errors.append(f"{op_id}: CSV digest {got[:12]} differs "
                                  f"from reference {ref['levels'][k][:12]}")
            if self.torsion_oracle is not None \
                    and lv.tors_order[0] != self.torsion_oracle[k]:
                res.failed.add(op_id)
                res.errors.append(f"{op_id}: |tors H_0| = {lv.tors_order[0]} "
                                  f"!= |det(A^i - I)|")

    def _op(self, res, op_ids, levels, ref, mark_op, whole=False):
        """Compute and check the table of the given levels; return its ns."""
        mark_op("tower" if whole else op_ids[0])
        specs = [self.specs[k] for k in levels]
        start = time.perf_counter_ns()
        try:
            report, csv_text = self._table(specs)
            elapsed = time.perf_counter_ns() - start
            self._check(res, op_ids, levels, report, csv_text, ref)
            if whole:
                res.table_digest = sha256(csv_text)
                if ref is not None and res.table_digest != ref["table"]:
                    res.failed.update(op_ids)
                    res.errors.append("tower: table digest differs from "
                                      "reference")
        except Exception as exc:      # counted as failed operations
            elapsed = time.perf_counter_ns() - start
            for op_id in op_ids:
                res.digests.setdefault(op_id, None)
            res.failed.update(op_ids)
            res.errors.append(f"{op_ids[0]}: {type(exc).__name__}: {exc}")
        return elapsed

    def run_pass(self, ref, mark_op=_noop, whole_table=False) -> PassResult:
        """Each level alone, one timed operation per level.

        With ``whole_table`` the pass first computes and checks the table of
        the whole tower in one ``run_tower`` call (untimed).
        """
        res = PassResult()
        n = len(self.specs)
        start = time.perf_counter_ns()
        if whole_table:
            self._op(res, [f"tower/{k}" for k in range(n)], list(range(n)),
                     ref, mark_op, whole=True)
        for k in range(n):
            res.op_ns.append(self._op(res, [f"level/{k}"], [k], ref, mark_op))
        res.total_ns = time.perf_counter_ns() - start
        return res

    def reference(self, res: PassResult) -> dict:
        """Reference digests from a pass run with ``whole_table``."""
        n = len(self.specs)
        return {"table": res.table_digest,
                "levels": [res.digests[f"level/{k}"] for k in range(n)]}


# ---------------------------------------------------------------------------
# small corpus
# ---------------------------------------------------------------------------

def _nu_cases():
    """The fixed small free ZG-complexes of the mu/nu/estimate suite."""
    from homgrow import exact_linalg, group_ring
    IntMatrix = exact_linalg.IntMatrix
    return [
        (group_ring.circle_complex(), (2,), 1, 1),
        (group_ring.circle_complex(), (4,), 1, 1),
        (group_ring.torus_complex(2), (2, 2), 1, 2),
        (group_ring.mapping_torus_complex(IntMatrix.from_rows([[3]])),
         (2,), 3, 1),
        (group_ring.mapping_torus_complex(
            IntMatrix.from_rows([[1, 1], [0, 1]])), (2,), 2, 1),
    ]


# Group orders cycle in a fixed order rather than by the seed: the order
# sets most of an instance's cost, so the seed changes the modules but not
# the mix, and the corpus costs about the same on every seed.
GH_ORDERS = ((2,), (3,), (4,), (2, 2), (8,), (2, 4), (16,), (9,))
MU_ORDERS = ((2,), (4,), (2, 2))


def _gen_gh(rng, orders):
    from homgrow import chain_complex, corpus, finite_homology
    while True:
        G = finite_homology.FinAbGroup.from_orders(orders)
        M = corpus.random_module_with_action(rng, G.factors)
        free_m, facs_m = M.structure()
        dM = chain_complex.d_of_abelian_group(facs_m, free_m)
        if dM <= 3:
            return G, M, dM


def _op_rho(C):
    from homgrow import chain_complex
    r = chain_complex.verify_rho_identity(C)
    if r["lhs_square"] != r["rhs_square"]:
        raise CheckFailed("rho identity squares differ")
    return [r["lhs_square"], r["rhs_square"]]


def _op_fk(A):
    from homgrow import exact_linalg
    r = exact_linalg.fk_factorization_check(A)
    parts = [r["det_u"].square_exact, r["det_jk"].square_exact,
             r["tors_coker"], r["det_prc"].square_exact]
    if parts[1] * parts[2] ** 2 * parts[3] != parts[0]:
        raise CheckFailed("FK factorization product differs")
    return parts


def _op_gh(payload):
    """Resolution certificate and H_0..H_4 with the criterion-6 bounds."""
    from homgrow import chain_complex, finite_homology
    G, M, dM = payload
    res = finite_homology.standard_resolution(G, 3)
    out = [res.ranks]
    for n in range(5):
        free_h, facs_h = finite_homology.group_homology(G, M, n)
        out.append([free_h, list(facs_h)])
        if n == 0:
            continue
        order_h = 1
        for d in facs_h:
            order_h *= d
        d_n = comb(n + G.d - 1, G.d - 1)
        if free_h != 0 or any(G.order % d for d in facs_h) \
                or order_h > G.order ** (d_n * dM) \
                or chain_complex.d_of_abelian_group(facs_h, 0) > d_n * dM:
            raise CheckFailed(f"group homology bound fails in degree {n}")
    return out


def _op_mu(M):
    from homgrow import finite_homology
    rep = finite_homology.coinvariants(M)
    if not rep["nilpotent"]:
        raise CheckFailed("unipotent module reported non-nilpotent")
    return rep


def _op_nu(payload):
    from homgrow import finite_homology
    qc, r, d = payload
    out = [finite_homology.nu_kernel_cokernel(qc, n) for n in range(d + 1)]
    est = finite_homology.verify_estimate_bounds(qc, r=r, d=d)
    out.append([{k: v for k, v in row.items() if k != "ln_bound"}
                for row in est["degrees"]])
    return out


_CORPUS_OPS = {"rho": _op_rho, "fk": _op_fk, "gh": _op_gh, "mu": _op_mu,
               "nu": _op_nu}


class CorpusWorkload:
    def __init__(self, name: str, seed: int, smoke: bool = False):
        from homgrow import corpus, group_ring
        self.name = name
        self.seed = seed
        rng = random.Random(seed)
        count = {k: v[1] if smoke else v[0] for k, v in CORPUS_MIX.items()}
        inst = []
        inst += [("rho", corpus.random_complex(rng))
                 for _ in range(count["rho"])]
        inst += [("fk", corpus.random_int_matrix(rng, max_dim=6, bound=5))
                 for _ in range(count["fk"])]
        inst += [("gh", _gen_gh(rng, GH_ORDERS[i % len(GH_ORDERS)]))
                 for i in range(count["gh"])]
        inst += [("mu", corpus.random_nilpotent_module(
                     rng, MU_ORDERS[i % len(MU_ORDERS)]))
                 for i in range(count["mu"])]
        for C, moduli, r, d in _nu_cases()[:count["nu"]]:
            qc = group_ring.base_change(C, group_ring.QuotientSpec(moduli))
            inst.append(("nu", (qc, r, d)))
        self.instances = [(f"{kind}/{i}", kind, payload)
                          for i, (kind, payload) in enumerate(inst)]

    def run_pass(self, ref, mark_op=_noop, whole_table=False) -> PassResult:
        """Every instance once; each instance is one timed operation."""
        res = PassResult()
        expected = None
        if ref is not None and ref["seed"] == self.seed:
            expected = ref["instances"]
        clock = time.perf_counter_ns
        pass_start = clock()
        for i, (op_id, kind, payload) in enumerate(self.instances):
            mark_op(op_id)
            start = clock()
            try:
                value = _CORPUS_OPS[kind](payload)
            except Exception as exc:  # counted as a failed operation
                res.op_ns.append(clock() - start)
                res.digests[op_id] = None
                res.failed.add(op_id)
                res.errors.append(f"{op_id}: {type(exc).__name__}: {exc}")
                continue
            res.op_ns.append(clock() - start)
            got = sha256(canon(value))[:16]
            res.digests[op_id] = got
            if expected is not None and got != expected[i]:
                res.failed.add(op_id)
                res.errors.append(f"{op_id}: digest {got} differs from "
                                  f"reference {expected[i]}")
        res.total_ns = clock() - pass_start
        return res

    def reference(self, res: PassResult) -> dict:
        return {"seed": self.seed,
                "instances": [res.digests[op_id]
                              for op_id, _, _ in self.instances]}


def make_workload(name: str, seed: int, smoke: bool = False):
    if name in TOWERS:
        return TowerWorkload(name, seed, smoke)
    if name == "small_corpus":
        return CorpusWorkload(name, seed, smoke)
    raise KeyError(name)
