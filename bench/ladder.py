"""The benchmark ladder: seeded input files and the answers they must produce.

Every group and matrix file is written here with the benchmark's own
arithmetic, never through grpext, so the program under test sees only text
files. Seed 0 writes the ladder exactly as given. Any other seed re-presents
the H side of each pair (and the single input of one-file commands) by an
explicit isomorphism:

- the action M becomes U M^r U^-1 for a random unit U and a random r coprime
  to m, and the generators become (U e_i, 0) and (0, r^-1 mod m), so that
  (a, j) -> (U a, j / r) maps the old presentation and its generators onto the
  new one;
- a Cayley table gets a random labelling that keeps the generators the
  program picks (it takes the smallest label it has not reached yet);
- sampled verification gets the seed as its --seed.

The abstract group and its generator list are therefore the same for every
seed. Verdict, gamma, abelian type and the k the k-search finds are fixed by
construction, and so is the amount of work, up to the order in which the
program sorts element codes.

Run as a script to write one workload's files:
    python3 bench/ladder.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import math
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

Matrix = tuple[tuple[int, ...], ...]

# --- Arithmetic on actions ------------------------------------------------------


def prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    if q != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def mat_mul(a: Matrix, b: Matrix, mods: tuple[int, ...]) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(n)) % mods[i] for j in range(n))
        for i in range(n)
    )


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_pow(a: Matrix, n: int, mods: tuple[int, ...]) -> Matrix:
    out, base = identity(len(a)), a
    while n:
        if n & 1:
            out = mat_mul(out, base, mods)
        base = mat_mul(base, base, mods)
        n >>= 1
    return out


def mat_vec(a: Matrix, v: tuple[int, ...], mods: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(a[i][j] * v[j] for j in range(len(v))) % mods[i] for i in range(len(v)))


def _inverse_mod(a: list[list[int]], q: int, p: int) -> Optional[list[list[int]]]:
    """Gauss-Jordan inverse over Z/q, q a power of p; None when singular mod p."""
    n = len(a)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] % p), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        scale = pow(work[col][col], -1, q)
        work[col] = [x * scale % q for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [(x - f * y) % q for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def prime_blocks(qs: tuple[int, ...]) -> list[tuple[int, int, int, int]]:
    """(p, q, start, stop) per run of equal primes; each run must share one q."""
    spans = []
    start = 0
    for i in range(1, len(qs) + 1):
        if i == len(qs) or prime_power(qs[i])[0] != prime_power(qs[start])[0]:
            if len(set(qs[start:i])) != 1:
                raise ValueError("the generator handles equal exponents per prime only")
            spans.append((prime_power(qs[start])[0], qs[start], start, i))
            start = i
    return spans


def random_unit(qs: tuple[int, ...], rng: random.Random) -> tuple[Matrix, Matrix]:
    """A random automorphism of A = prod Z_q (block diagonal per prime) and its inverse."""
    n = len(qs)
    u = [[0] * n for _ in range(n)]
    u_inv = [[0] * n for _ in range(n)]
    for p, q, start, stop in prime_blocks(qs):
        size = stop - start
        while True:
            block = [[rng.randrange(q) for _ in range(size)] for _ in range(size)]
            inv = _inverse_mod(block, q, p)
            if inv is not None:
                break
        for i in range(size):
            for j in range(size):
                u[start + i][start + j] = block[i][j]
                u_inv[start + i][start + j] = inv[i][j]
    return tuple(map(tuple, u)), tuple(map(tuple, u_inv))


def action_order(rows: Matrix, qs: tuple[int, ...], m: int) -> int:
    return next(d for d in divisors(m) if mat_pow(rows, d, qs) == identity(len(qs)))


# --- Groups and their expected invariants ----------------------------------------


@dataclass(frozen=True)
class Semidirect:
    """A x| Z_m, A = prod Z_q, acting by the full matrix `rows`; gens None = default."""

    qs: tuple[int, ...]
    m: int
    rows: Matrix
    gens: Optional[tuple[tuple[tuple[int, ...], int], ...]] = None
    as_table: bool = False

    @property
    def order(self) -> int:
        return math.prod(self.qs) * self.m

    def gamma_and_type(self) -> tuple[int, tuple[int, ...]]:
        """Standard decomposition by construction.

        With d the order of the action, Z_m splits as Z_m1 x Z_m2 where m1
        holds the full prime powers of m over the primes of d. Z_m2 acts
        trivially, so G = (A x Z_m2) x| Z_m1 with gcd(|A| m2, m1) = 1.
        """
        d = action_order(self.rows, self.qs, self.m)
        m1 = math.prod(p**e for p, e in factor(self.m) if d % p == 0)
        parts = list(self.qs) + [p**e for p, e in factor(self.m // m1)]
        return m1, tuple(sorted(parts, key=prime_power))

    def generator_orders(self) -> list[int]:
        gens = self.gens or tuple(
            (tuple(int(t == i) for t in range(len(self.qs))), 0) for i in range(len(self.qs))
        ) + ((tuple(0 for _ in self.qs), 1),)
        out = []
        for a, j in gens:
            a_order = math.lcm(*(q // math.gcd(q, x) for q, x in zip(self.qs, a)))
            out.append(math.lcm(a_order, self.m // math.gcd(self.m, j)) if j else a_order)
        return out


def represent(g: Semidirect, rng: random.Random) -> Semidirect:
    """Re-present g by (a, j) -> (U a, j / r); see the module docstring."""
    if g.gens is not None:
        raise ValueError("only default generators are re-presented")
    u, u_inv = random_unit(g.qs, rng)
    r = rng.choice([x for x in range(1, g.m + 1) if math.gcd(x, g.m) == 1])
    rows = mat_mul(mat_mul(u, mat_pow(g.rows, r, g.qs), g.qs), u_inv, g.qs)
    n = len(g.qs)
    gens = tuple((tuple(u[i][c] for i in range(n)), 0) for c in range(n))
    gens += ((tuple(0 for _ in g.qs), pow(r, -1, g.m) % g.m if g.m > 1 else 0),)
    return replace(g, rows=rows, gens=gens)


def semidirect_text(g: Semidirect, comment: str) -> str:
    lines = [f"# {comment}", "semidirect", "A " + " ".join(map(str, g.qs)), f"m {g.m}"]
    lines += [" ".join(map(str, row)) for row in g.rows]
    for a, j in g.gens or ():
        lines.append("gens " + " ".join(map(str, a)) + f" {j}")
    return "\n".join(lines) + "\n"


def cayley_rows(g: Semidirect, rng: Optional[random.Random]) -> list[list[int]]:
    """Cayley table of g; canonical labels j*|A| + (a as mixed radix), or a
    random labelling that keeps the smallest-unreached-label generator picks."""
    n_a = math.prod(g.qs)
    elems = []
    for j in range(g.m):
        for idx in range(n_a):
            a, rest = [], idx
            for q in reversed(g.qs):
                a.append(rest % q)
                rest //= q
            elems.append((tuple(reversed(a)), j))
    powers = [mat_pow(g.rows, j, g.qs) for j in range(g.m)]
    a_index = {e[0]: i for i, e in enumerate(elems[:n_a])}
    a_elems = [e[0] for e in elems[:n_a]]
    add = [[a_index[tuple((x + y) % q for x, y, q in zip(a, b, g.qs))] for b in a_elems] for a in a_elems]
    moved = [[a_index[mat_vec(pw, b, g.qs)] for b in a_elems] for pw in powers]
    table = [
        [add[ia][moved[ja][ib]] + ((ja + jb) % g.m) * n_a for jb in range(g.m) for ib in range(n_a)]
        for ja in range(g.m)
        for ia in range(n_a)
    ]
    if rng is None:
        return table
    n = len(elems)
    reached = {0}
    order = [0]
    while len(reached) < n:
        gen = next(i for i in range(n) if i not in reached)
        frontier = [gen]
        fresh = [gen]
        reached.add(gen)
        while frontier:
            nxt = []
            for x in frontier:
                for y in list(reached):
                    for z in (table[x][y], table[y][x]):
                        if z not in reached:
                            reached.add(z)
                            fresh.append(z)
                            nxt.append(z)
            frontier = nxt
        tail = fresh[1:]
        rng.shuffle(tail)
        order += [gen] + tail
    label = [0] * n
    for new, old in enumerate(order):
        label[old] = new
    relabelled = [[0] * n for _ in range(n)]
    for x in range(n):
        row = table[x]
        out = relabelled[label[x]]
        for y in range(n):
            out[label[y]] = label[row[y]]
    return relabelled


def table_text(rows: list[list[int]], comment: str) -> str:
    return f"# {comment}\ntable {len(rows)}\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n"


def matrix_text(p: int, exps: tuple[int, ...], rows: Matrix) -> str:
    return f"ptype {p} " + " ".join(map(str, exps)) + "\n" + "\n".join(
        " ".join(map(str, r)) for r in rows
    ) + "\n"


# --- The ladder ------------------------------------------------------------------


def sd(qs, m, *diag) -> Semidirect:
    """A x| Z_m acting by a diagonal matrix, as the ladder writes its entries."""
    rows = tuple(tuple(x if i == j else 0 for j in range(len(qs))) for i, x in enumerate(diag))
    return Semidirect(tuple(qs), m, rows)


def class_rep(r: int, i: int, index: int) -> Semidirect:
    """Class representative of Z_{3^i}^r x| Z_4 with blocks X+1, X-1, X^2+1.

    The triples (k1, k2, k3), k1 + k2 + 2 k3 = r, come in the order the
    count-classes command lists them. The blocks are lifted to Z/3^i as -1, 1
    and [[0, -1], [1, 0]], which keep order dividing 4.
    """
    k1, k2, k3 = class_triples(r)[index]
    q = 3**i
    blocks = [((q - 1,),)] * k1 + [((1,),)] * k2 + [((0, q - 1), (1, 0))] * k3
    rows = [[0] * r for _ in range(r)]
    pos = 0
    for b in blocks:
        for x in range(len(b)):
            for y in range(len(b)):
                rows[pos + x][pos + y] = b[x][y]
        pos += len(b)
    return Semidirect((q,) * r, 4, tuple(map(tuple, rows)))


def class_triples(r: int) -> list[tuple[int, int, int]]:
    return [(r - 2 * k3 - k2, k2, k3) for k3 in range(r // 2, -1, -1) for k2 in range(r - 2 * k3 + 1)]


NO_CONJUGATING_K = "no-conjugating-k"


@dataclass(frozen=True)
class Pair:
    """Decide G vs H through iso.isomorphic, or through `grpext isomorphic` if cli."""

    id: str
    why: str
    g: Semidirect
    h: Semidirect
    k: Optional[int]  # None: not isomorphic by condition (iii)
    cli: bool = False


@dataclass(frozen=True)
class Decomposition:
    """`grpext standard-decomposition` on one group."""

    id: str
    why: str
    g: Semidirect


@dataclass(frozen=True)
class Conjugacy:
    """`grpext conjugacy` on two matrices of one p-type; conjugate by construction."""

    id: str
    why: str
    p: int
    exps: tuple[int, ...]
    m1: Matrix
    m2: Matrix
    order_cap: int


@dataclass(frozen=True)
class CountClasses:
    """`grpext count-classes --r R --emit-reps I` into a fresh directory."""

    id: str
    why: str
    r: int
    i: int


WORKLOADS = {
    "kscan-large-gamma": [
        Pair("a211", "k = 209 is the last unit mod 210: the scan runs over all 48 k",
             sd([211], 210, 2), sd([211], 210, 106), 209),
        Pair("a1009", "k = 1007 is the last unit mod 1008: all 288 k, each with order-1008 matrix work",
             sd([1009], 1008, 11), sd([1009], 1008, 367), 1007),
        Pair("a1009-no", "same gamma and type, action orders 1008 vs 504: the scan tries all 288 k and fails",
             sd([1009], 1008, 11), sd([1009], 1008, 121), None),
        # 1018 = 2 * 509, so the sweep has 8 divisors where A 1009 has 60: the
        # entry where the k-search is nearly all of the decision.
        Pair("a1019", "2 vs its inverse: k = 1017, all 508 units, an 8-divisor sweep",
             sd([1019], 1018, 2), sd([1019], 1018, 510), 1017),
    ],
    "decomp-wide-abelian": [
        Pair("a25-31-31", "|G| = 72 075 over three coordinates: the widest decomposition sweep",
             sd([25, 31, 31], 3, 1, 5, 25), sd([25, 31, 31], 3, 1, 25, 5), 1),
        Pair("a11-11-table", "H is a 605-element table: sampled associativity check and the table oracle",
             sd([11, 11], 5, 3, 9), replace(sd([11, 11], 5, 9, 4), as_table=True), 3),
        Pair("r4i1-rep0-rep0", "count-classes representative, k = 1", class_rep(4, 1, 0), class_rep(4, 1, 0), 1),
        Pair("r4i1-rep0-rep1", "two classes with equal gamma and type: fails at condition (iii)",
             class_rep(4, 1, 0), class_rep(4, 1, 1), None),
        Pair("r4i1-rep3-table", "H is a 324-element table: the exact Light's-test branch of validation",
             class_rep(4, 1, 3), replace(class_rep(4, 1, 3), as_table=True), 1),
        Pair("r4i2-rep2", "|G| = 26 244, Z_9^4 with every block kind", class_rep(4, 2, 2), class_rep(4, 2, 2), 1),
        Pair("a3-3-no", "small non-isomorphic pair: actions of order 2 with different fixed spaces",
             sd([3, 3], 4, 2, 1), sd([3, 3], 4, 2, 2), None),
    ],
    "cli-verified": [
        Pair("g21", "order 21, k = 2, H a table: the 10 000-pair mu check makes ~99% of the oracle calls",
             sd([7], 3, 2), replace(sd([7], 3, 4), as_table=True), 2, cli=True),
        Pair("a3-3-no", "a `no` report, no verification", sd([3, 3], 4, 2, 1), sd([3, 3], 4, 2, 2), None, cli=True),
        Decomposition("a25-31-31-decomp", "the attempt lines of the whole sweep", sd([25, 31, 31], 3, 1, 5, 25)),
        Conjugacy("ptype-11-1-1", "the matrix layer alone", 11, (1, 1), ((3, 0), (0, 9)), ((9, 0), (0, 3)), 5),
        CountClasses("count-r4", "class enumeration and file output", 4, 1),
    ],
}


def least_k(g: Semidirect, h: Semidirect) -> Optional[int]:
    """Least k coprime to gamma with h's action^k conjugate to g's, for actions
    that are diagonal with exponent-1 (or 1x1) prime blocks: there conjugacy
    is equality of the eigenvalue multisets per prime block."""
    gamma, _ = g.gamma_and_type()
    for k in range(1, gamma + 1):
        if math.gcd(k, gamma) != 1:
            continue
        hk = mat_pow(h.rows, k, h.qs)
        if all(
            sorted(g.rows[i][i] for i in range(a, b)) == sorted(hk[i][i] for i in range(a, b))
            for _, _, a, b in prime_blocks(g.qs)
        ):
            return k
    return None


# --- Materialising a workload ------------------------------------------------------


@dataclass
class Prepared:
    """One entry of a run: its files and what the program must answer."""

    entry: object
    files: dict[str, Path]
    h: Optional[Semidirect] = None  # the re-presented group (H side or single input)
    m2: Optional[Matrix] = None  # re-presented second matrix
    verify_seed: int = 0


def _side_rng(seed: int, entry_id: str) -> Optional[random.Random]:
    return None if seed == 0 else random.Random(f"{seed}/{entry_id}")


def prepare(workload: str, seed: int, out: Path, write: bool) -> list[Prepared]:
    """Entries of `workload` for `seed`, with files under `out` (written if asked)."""
    prepared = []
    for entry in WORKLOADS[workload]:
        rng = _side_rng(seed, entry.id)
        files: dict[str, Path] = {}
        texts: dict[str, str] = {}
        item = Prepared(entry, files, verify_seed=seed)
        if isinstance(entry, (Pair, Decomposition)):
            groups = {"h": entry.h, "g": entry.g} if isinstance(entry, Pair) else {"h": entry.g}
            for side, grp in groups.items():
                path = out / f"{entry.id}-{side}.grp"
                files[side] = path
                if side == "h":
                    if not grp.as_table and rng is not None:
                        grp = represent(grp, rng)
                    item.h = grp
                if write:
                    comment = f"{entry.id} {side} seed {seed}"
                    texts[side] = (
                        table_text(cayley_rows(grp, rng if side == "h" else None), comment)
                        if grp.as_table
                        else semidirect_text(grp, comment)
                    )
        elif isinstance(entry, Conjugacy):
            qs = tuple(entry.p**e for e in entry.exps)
            m2 = entry.m2
            if rng is not None:
                u, u_inv = random_unit(qs, rng)
                m2 = mat_mul(mat_mul(u, m2, qs), u_inv, qs)
            item.m2 = m2
            files["m1"] = out / f"{entry.id}-1.mat"
            files["m2"] = out / f"{entry.id}-2.mat"
            texts["m1"] = matrix_text(entry.p, entry.exps, entry.m1)
            texts["m2"] = matrix_text(entry.p, entry.exps, m2)
        elif isinstance(entry, CountClasses):
            files["dir"] = out / f"{entry.id}-reps"
        if write:
            for side, text in texts.items():
                files[side].write_text(text, encoding="utf-8")
        prepared.append(item)
    return prepared


# --- Checking the program's answers ---------------------------------------------------


@dataclass(frozen=True)
class Decision:
    """What iso.isomorphic answered, reduced to the checked fields."""

    verdict: bool
    condition: Optional[str]
    k: Optional[int]
    gammas: tuple[int, ...]  # (source, target) for a yes, () for a no
    types: tuple[tuple[int, ...], ...]


def check_decision(item: Prepared, got: Decision) -> Optional[str]:
    """None when the decision is the expected one, else what differs."""
    entry = item.entry
    gamma, a_type = entry.g.gamma_and_type()
    if entry.k is None:
        if got.verdict or got.condition != NO_CONJUGATING_K:
            return f"expected no ({NO_CONJUGATING_K}), got {got}"
        return None
    want = Decision(True, None, entry.k, (gamma, gamma), (a_type, a_type))
    if got != want or math.gcd(got.k, gamma) != 1:
        return f"expected {want}, got {got}"
    return None


def cli_argv(item: Prepared) -> list[str]:
    entry, files = item.entry, item.files
    if isinstance(entry, Pair):
        return ["isomorphic", str(files["g"]), str(files["h"]), "--seed", str(item.verify_seed)]
    if isinstance(entry, Decomposition):
        return ["standard-decomposition", str(files["h"])]
    if isinstance(entry, Conjugacy):
        return ["conjugacy", str(files["m1"]), str(files["m2"]), "--order-cap", str(entry.order_cap)]
    return ["count-classes", "--r", str(entry.r), "--emit-reps", str(entry.i), "--out-dir", str(files["dir"])]


def _digest(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _rows_pattern(s: int) -> str:
    return r"\d+" + r" \d+" * (s - 1)


def _type_blocks(a_type: tuple[int, ...]) -> list[tuple[int, list[int]]]:
    blocks: list[tuple[int, list[int]]] = []
    for q in a_type:
        p, e = prime_power(q)
        if blocks and blocks[-1][0] == p:
            blocks[-1][1].append(e)
        else:
            blocks.append((p, [e]))
    return blocks


def _is_unit(rows: list[list[int]], p: int, q: int) -> bool:
    return _inverse_mod(rows, q, p) is not None


def check_report(item: Prepared, code: int, report: str) -> Optional[str]:
    """Compare a CLI report, wall-time-ms removed, with what construction fixes.

    Lines the construction fixes are compared byte for byte. Oracle counts,
    the psi and conjugator matrices, y and the per-m attempt outcomes are
    matched by shape here and checked by their defining property below;
    run.py also requires every pass to print the identical report.
    """
    entry, files = item.entry, item.files
    lines = report.splitlines()
    want: list[str] = []  # regular expressions, one per line
    lit = re.escape
    if isinstance(entry, Pair):
        want += [lit("command isomorphic"), lit(f"input-g {_digest(files['g'])}"),
                 lit(f"input-h {_digest(files['h'])}")]
        gamma, a_type = entry.g.gamma_and_type()
        if entry.k is None:
            want += [lit("verdict no"), lit(f"reason {NO_CONJUGATING_K}")]
        else:
            want += [lit("verdict yes"), lit(f"gamma {gamma}"), lit(f"k {entry.k}")]
            for p, exps in _type_blocks(a_type):
                want.append(lit(f"psi-block {p} " + " ".join(map(str, exps))))
                want += [_rows_pattern(len(exps))] * len(exps)
            want.append(lit("mu-check sampled pass"))
        want += [r"oracle-calls-g \d+", r"oracle-calls-h \d+"]
    elif isinstance(entry, Decomposition):
        g = item.h
        gamma, a_type = g.gamma_and_type()
        m_bar = math.lcm(*g.generator_orders())
        want += [lit("command standard-decomposition"), lit(f"input {_digest(files['h'])}"),
                 lit(f"gamma {gamma}"), lit(f"abelian-order {math.prod(a_type)}"),
                 lit("abelian-type " + " ".join(map(str, a_type))), lit(f"group-order {g.order}"),
                 r"y \d+" + r",\d+" * (len(g.qs) - 1) + r";\d+"]
        want += [rf"attempt {d} (ok \d+|error .+)" for d in divisors(m_bar)]
        want.append(r"oracle-calls \d+")
    elif isinstance(entry, Conjugacy):
        want += [lit("command conjugacy"), lit(f"input-1 {_digest(files['m1'])}"),
                 lit(f"input-2 {_digest(files['m2'])}"), lit("conjugate yes")]
        want += [_rows_pattern(len(entry.exps))] * len(entry.exps)
    else:
        triples = class_triples(entry.r)
        want += [lit("command count-classes"), lit(f"r {entry.r}"), lit(f"count {len(triples)}")]
        want += [lit(f"triple {a} {b} {c}") for a, b, c in triples]
        want += [lit(f"wrote rep_r{entry.r}_i{entry.i}_{idx:02d}.grp") for idx in range(len(triples))]
    if code != 0:
        return f"exit code {code}"
    if len(lines) != len(want):
        return f"report has {len(lines)} lines, expected {len(want)}:\n{report}"
    for line, pattern in zip(lines, want):
        if not re.fullmatch(pattern, line):
            return f"report line {line!r} does not match {pattern!r}"
    return _check_report_values(item, lines)


def _check_report_values(item: Prepared, lines: list[str]) -> Optional[str]:
    entry = item.entry
    if isinstance(entry, Pair) and entry.k is not None:
        pos = 6
        for p, exps in _type_blocks(entry.g.gamma_and_type()[1]):
            rows = [list(map(int, ln.split())) for ln in lines[pos + 1 : pos + 1 + len(exps)]]
            if not _is_unit(rows, p, p ** max(exps)):
                return f"psi block for p={p} is not invertible"
            pos += 1 + len(exps)
    elif isinstance(entry, Decomposition):
        g = item.h
        gamma, _ = g.gamma_and_type()
        oks = {}
        for ln in lines:
            parts = ln.split()
            if parts[0] == "attempt" and parts[2] == "ok":
                oks[int(parts[1])] = int(parts[3])
        best = max(oks.values(), default=0)
        if best != g.order or min(m for m, v in oks.items() if v == best) != gamma:
            return f"attempts do not reach |G| = {g.order} first at m = {gamma}"
    elif isinstance(entry, Conjugacy):
        qs = tuple(entry.p**e for e in entry.exps)
        u = tuple(tuple(map(int, ln.split())) for ln in lines[4:])
        if not _is_unit([list(r) for r in u], entry.p, max(qs)) or mat_mul(u, entry.m1, qs) != mat_mul(
            item.m2, u, qs
        ):
            return "conjugator is not a unit U with U M1 = M2 U"
    elif isinstance(entry, CountClasses):
        for idx in range(len(class_triples(entry.r))):
            path = item.files["dir"] / f"rep_r{entry.r}_i{entry.i}_{idx:02d}.grp"
            body = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln and not ln.startswith("#")]
            rep = class_rep(entry.r, entry.i, idx)
            want = ["semidirect", "A " + " ".join(map(str, rep.qs)), f"m {rep.m}"]
            want += [" ".join(map(str, row)) for row in rep.rows]
            if body != want:
                return f"{path.name} is not class representative {idx}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prepare(args.workload, args.seed, out, write=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
