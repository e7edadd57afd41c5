"""The three benchmark workloads: input generation, one operation, and the
check of its output.

A workload's inputs come in cycles.  Cycle ``c`` is generated from its own
``random.Random`` seeded with the workload name, the run seed and ``c``,
so the same seed gives the same inputs, and a run never repeats an input
unless the workload repeats it on purpose (the seed-independent CLI
calls, and subgroup-ladder's reference cycle).  An ``Op`` carries only
generated inputs: library objects or an argv list.  ``run`` receives the
op and the fixlab modules, never the seed.

Rung and class labels such as ``l7-p0-q0`` name the spec (l, p, q) of
G = K^l x Z^p x (Z/2)^q an operation works in.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
DOCUMENTED_EXIT_CODES = (0, 1, 2)


@dataclass(frozen=True)
class Op:
    cls: str
    payload: object


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


class OpError(Exception):
    """An operation ended outside its documented contract (for the CLI: an
    exit code other than 0, 1 or 2)."""


class Tally:
    """Rank certificates computed by the operations or their checks."""

    def __init__(self):
        self.rank_total = 0
        self.rank_exact = 0

    def rank(self, fx, h):
        cert = fx.subgroup.rank(h)
        self.rank_total += 1
        self.rank_exact += int(cert.exact)
        return cert


def rung_label(spec) -> str:
    return f"l{spec.klein_count}-p{spec.free_rank}-q{spec.torsion_count}"


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _cycle_rng(workload: str, seed, cycle: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{cycle}")


def random_word(spec, rng: random.Random, max_len: int):
    """Product of 1..max_len random generators or inverses."""
    letters = []
    for g in spec.generators():
        letters.append(g)
        letters.append(g.inv())
    g = spec.identity()
    for _ in range(rng.randint(1, max_len)):
        g = g * rng.choice(letters)
    return g


def _parity_rank(elements) -> int:
    """GF(2) rank of the parity-quotient images (b-parities, torsion bits)."""
    basis: list[int] = []
    for g in elements:
        bits = [t % 2 for _, t in g.klein] + list(g.tor)
        x = int("".join(map(str, bits)) or "0", 2)
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
    return len(basis)


# ------------------------------------------------------------ subgroup-ladder


class SubgroupLadder:
    """Build H and K from random words, intersect them, certify the meet's
    rank and test a word for membership in the meet.

    The warm-up cycle (``c = -1``) is the reference cycle: its inputs do
    not depend on the seed, and golden.json holds the canonical words of
    H, K and the meet, the membership answer and the rank recorded at the
    seed commit.  Checking against that record does not rely on the code
    under test, so it catches a subgroup that comes out too large, which
    the containment checks alone cannot."""

    name = "subgroup-ladder"
    ladders = (((3, 0, 0), (4, 0, 0), (5, 0, 0), (6, 0, 0)),
               ((1, 0, 1), (2, 0, 2), (3, 0, 3)))
    rungs = sum(ladders, ())
    top = "l6-p0-q0"
    # Operations per rung and cycle, 1 if not named.  Of the ten, the
    # three cheapest rungs sit below NS2^4's three, so the p50 falls inside
    # NS2^4's block, and NS2^6's two make the top fifth, so the p90 falls
    # at its middle.  Each rung's latency jumps with the meet's parity
    # dimension, which the random words decide; more samples on the rungs
    # that carry a percentile keep that from moving it between seeds.
    repeats = {(4, 0, 0): 3, (6, 0, 0): 2}

    def __init__(self):
        self.golden = load_golden()[self.name]

    def cycle(self, fx, seed: int, c: int) -> list[Op]:
        rng = _cycle_rng(self.name, "reference" if c < 0 else seed, c)
        ops = []
        for shape in self.rungs:
            spec = fx.groupcore.GroupSpec(*shape)
            for _ in range(self.repeats.get(shape, 1)):
                h_gens = self._full_parity_words(spec, rng)
                k_gens = self._full_parity_words(spec, rng)
                probe = random_word(spec, rng, 3)
                ops.append(Op(rung_label(spec), (spec, h_gens, k_gens, probe)))
        return ops

    @staticmethod
    def _full_parity_words(spec, rng):
        """2l+q words of length <= 3 whose parity images span (Z/2)^(l+q),
        so the generated subgroup has the full parity dimension."""
        count = 2 * spec.klein_count + spec.torsion_count
        while True:
            words = [random_word(spec, rng, 3) for _ in range(count)]
            if _parity_rank(words) == spec.quotient_parity_dim:
                return words

    def run(self, fx, op: Op, tally: Tally):
        spec, h_gens, k_gens, probe = op.payload
        sg = fx.subgroup
        h = sg.from_generators(spec, h_gens)
        k = sg.from_generators(spec, k_gens)
        meet = sg.intersect(h, k)
        cert = tally.rank(fx, meet)
        return h, k, meet, cert, sg.membership(probe, meet)

    @staticmethod
    def golden_key(fx, op: Op) -> str:
        _, h_gens, k_gens, probe = op.payload
        words = fx.groupcore.format_element
        return json.dumps([op.cls, [words(g) for g in h_gens],
                           [words(g) for g in k_gens], words(probe)])

    @staticmethod
    def golden_value(fx, result) -> dict:
        h, k, meet, cert, member = result
        words = fx.subgroup.generator_words
        return {"h": words(h), "k": words(k), "meet": words(meet), "member": member,
                "rank": cert.value if cert.exact else None}

    def check(self, fx, op: Op, result, tally: Tally) -> None:
        spec, h_gens, k_gens, probe = op.payload
        h, k, meet, cert, member = result
        sg = fx.subgroup
        expected = self.golden.get(self.golden_key(fx, op))
        if expected is not None:
            _require(self.golden_value(fx, result) == expected,
                     "output differs from the recorded output")
        _require(all(sg.membership(g, h) for g in h_gens), "H misses a generator")
        _require(all(sg.membership(g, k) for g in k_gens), "K misses a generator")
        _require(sg.containment(meet, h), "meet not inside H")
        _require(sg.containment(meet, k), "meet not inside K")
        _require(member == (sg.membership(probe, h) and sg.membership(probe, k)),
                 "membership disagrees with H and K")
        if cert.exact:
            _require(len(cert.generators) == cert.value, "certificate size")
            _require(sg.from_generators(spec, cert.generators) == meet,
                     "rank generators do not regenerate the meet")


# ------------------------------------------------------------------ fix-sweep


class FixSweep:
    """Fixed subgroup of one endomorphism: three seeded random maps, then
    one seeded automorphism, per rung and cycle."""

    name = "fix-sweep"
    # parity dimension 2l+p+q = 6, 7, 8, 9, 10
    ladders = (((2, 1, 1), (3, 0, 1), (3, 0, 2), (3, 1, 2), (4, 0, 2)),)
    rungs = sum(ladders, ())
    top = "l4-p0-q2"
    box_rungs = ("l2-p1-q1", "l3-p0-q1")
    randoms_per_auto = 3
    # Words of length <= 2 keep random_endo's rejection sampling short on
    # l4-p0-q2 (about 0.03 s a map, against 0.2 s with length 3); the maps
    # still solve only one to four parity classes.
    endo_word_len = 2
    endo_attempts = 100000

    def cycle(self, fx, seed: int, c: int) -> list[Op]:
        rng = _cycle_rng(self.name, seed, c)
        morphism = fx.morphism
        ops = []
        for slot in range(self.randoms_per_auto + 1):
            for shape in self.rungs:
                spec = fx.groupcore.GroupSpec(*shape)
                if slot < self.randoms_per_auto:
                    endo = morphism.random_endo(
                        spec, rng=random.Random(rng.getrandbits(64)),
                        max_word_len=self.endo_word_len, attempts=self.endo_attempts)
                else:
                    endo = self._automorphism(fx, spec, rng)
                ops.append(Op(rung_label(spec), endo))
        return ops

    @staticmethod
    def _automorphism(fx, spec, rng: random.Random):
        """One elementary automorphism per factor, composed in seeded order:
        b_i -> b_i a_i, b_i -> b_i^-1 or both for each Klein factor, and
        c_j -> c_j^-1 or c_j -> c_j d_k for each free factor.  Every factor
        moves, so each map on a rung solves the same number of classes."""
        moves = []
        for i in range(1, spec.klein_count + 1):
            shear, flip = {f"b{i}": f"b{i} a{i}"}, {f"b{i}": f"b{i}^-1"}
            moves += rng.choice(([shear], [flip], [flip, shear]))
        for j in range(1, spec.free_rank + 1):
            moves.append(rng.choice([{f"c{j}": f"c{j}^-1"}] + [
                {f"c{j}": f"c{j} d{k}"} for k in range(1, spec.torsion_count + 1)]))
        rng.shuffle(moves)
        morphism = fx.morphism
        out = morphism.identity_endo(spec)
        for move in moves:
            out = morphism.compose(morphism.endo_from_words(spec, move, fill_identity=True), out)
        return out

    def run(self, fx, op: Op, tally: Tally):
        return fx.morphism.fixed_subgroup(op.payload)

    def check(self, fx, op: Op, result, tally: Tally) -> None:
        endo = op.payload
        apply = fx.morphism.apply
        fixed = result.subgroup
        _require(result.solved_classes == len(result.class_reps) + 1,
                 "solved_classes does not match the class representatives")
        for g in fixed.stored_generators() + list(result.class_reps):
            _require(apply(endo, g) == g, "stored element is not fixed")
        if op.cls in self.box_rungs:
            self._box_oracle(fx, endo, fixed)
        cert = tally.rank(fx, fixed)
        if cert.exact:
            _require(fx.subgroup.from_generators(endo.spec, cert.generators) == fixed,
                     "rank generators do not regenerate the fixed subgroup")

    @staticmethod
    def _box_oracle(fx, endo, fixed) -> None:
        """Every element with integer exponents in [-1, 1] and any torsion
        bits is fixed exactly when it is a member."""
        spec = endo.spec
        l, p, q = spec.klein_count, spec.free_rank, spec.torsion_count
        element = fx.groupcore.Element
        apply, membership = fx.morphism.apply, fx.subgroup.membership
        ranges = [range(-1, 2)] * (2 * l + p) + [range(2)] * q
        for coords in itertools.product(*ranges):
            klein = tuple((coords[2 * i], coords[2 * i + 1]) for i in range(l))
            g = element(spec, klein, coords[2 * l:2 * l + p], coords[2 * l + p:])
            _require((apply(endo, g) == g) == membership(g, fixed),
                     "box element disagrees with membership")


# ------------------------------------------------------------- certify-search


def load_golden() -> dict:
    """Reference outputs recorded at the seed commit by record_golden.py,
    one mapping per workload."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def golden_key(argv) -> str:
    return json.dumps(list(argv))


@dataclass(frozen=True)
class CliResult:
    code: object
    stdout: str
    stderr: str


def run_cli(fx, argv) -> CliResult:
    """In-process ``fixlab.cli.main(argv)`` with stdout and stderr captured;
    exceptions other than SystemExit propagate."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fx.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def _split_words(text: str) -> list[str]:
    """Words of a printed generator list "w1, w2, ..."."""
    return [w.strip() for w in text.split(",")]


class CertifySearch:
    """One in-process ``fixlab.cli.main(argv)`` call per operation."""

    name = "certify-search"
    ladders = ()
    top = "search-inertia"
    # seed-independent calls: the exhaustive inertia searches (none finds
    # a witness), then the documented edge inputs (trivial group, empty
    # subgroup, huge exponent).  The five searches take about 0.1, 0.16,
    # 0.3, 0.45 and 0.65 s at reference speed, so the search-inertia p50
    # is the middle one's, and, with one search per 26 calls, the p90
    # falls on it as well; its neighbours are far enough from it that the
    # two percentiles do not drift between searches.  NS2 x Z at (3, 2)
    # and both groups at (2, 3) take 1.2-2.7 s: over such a call the
    # host's speed changes and the probes before and after it no longer
    # tell how fast it ran.
    huge = str(10 ** 12)
    fixed_calls = tuple(
        ("search-inertia", ["search-inertia", "-g", g, "--sub", "a1; b1",
                            "--max-word-len", str(w), "--max-gens", str(n)])
        for g, w, n in (("NS2^2", 1, 3), ("NS2 x Z2", 2, 2), ("NS2 x Z2^2", 2, 2),
                        ("NS2 x Z x Z2", 2, 2), ("NS2 x Z2", 3, 2))
    ) + tuple(("edge", argv) for argv in (
        ["sample-inertia", "-g", "1", "--trials", "20"],
        ["search-inertia", "-g", "1", "--sub", ""],
        ["certify-compressed", "-g", "1", "--sub", ""],
        ["rank", "-g", "NS2 x Z", "--sub", ""],
        ["member", "-g", "NS2 x Z", "-w", "a1", "--sub", ""],
        ["search-compression", "-g", "NS2 x Z", "--sub", ""],
        ["pow", "-g", "NS2 x Z", "-w", "a1 b1 c1", "-k", huge],
        ["member", "-g", "NS2 x Z", "-w", f"a1^{huge} c1^-{huge}", "--sub", "a1^2; c1^2"],
    ))
    compression_groups = (("NS2 x Z", ("a1", "b1", "c1")),
                          ("NS2^2", ("a1", "b1", "a2", "b2")))
    # Per group and cycle: certify-compressed on four seeded subgroups,
    # search-compression on the first.  A cycle then holds 26 calls: the
    # eight edge calls (about 3 ms), the eight certificates (about 4 ms),
    # and ten dearer calls, so the p50 lies inside the certificates'
    # block.  On NS2^2 a search that gets past the abelian-image screen
    # can take up to 1 s; one search per group and cycle keeps those
    # few enough not to move ops_per_s and the p90 from seed to seed.
    subgroups_per_group = 4
    searched_per_group = 1
    sample_groups = ("NS2 x Z2^2", "NS2^2 x Z2", "NS2 x Z^2 x Z2")
    sample_trials = 100

    def __init__(self):
        self.golden = load_golden()[self.name]

    def cycle(self, fx, seed: int, c: int) -> list[Op]:
        rng = _cycle_rng(self.name, seed, c)
        ops = [Op(cls, list(argv)) for cls, argv in self.fixed_calls]
        for group, names in self.compression_groups:
            for i in range(self.subgroups_per_group):
                sub = "; ".join(self._square_word(rng, names) for _ in names)
                if i < self.searched_per_group:
                    ops.append(Op("search-compression",
                                  ["search-compression", "-g", group, "--sub", sub,
                                   "--max-word-len", "2", "--max-gens", "2"]))
                ops.append(Op("certify-compressed",
                              ["certify-compressed", "-g", group, "--sub", sub]))
        for group in self.sample_groups:
            ops.append(Op("sample-inertia",
                          ["sample-inertia", "-g", group,
                           "--trials", str(self.sample_trials),
                           "--seed", str(rng.getrandbits(31))]))
        return ops

    @staticmethod
    def _square_word(rng: random.Random, names) -> str:
        """w w for a random word w of length <= 2: squares give subgroups
        with a small abelian image, so about half the searches get past
        their first screen (random words almost never do)."""
        toks = [rng.choice(names) + rng.choice(("", "^-1"))
                for _ in range(rng.randint(1, 2))]
        return " ".join(toks + toks)

    def run(self, fx, op: Op, tally: Tally) -> CliResult:
        return run_cli(fx, op.payload)

    def check(self, fx, op: Op, result: CliResult, tally: Tally) -> None:
        argv = op.payload
        if result.code not in DOCUMENTED_EXIT_CODES:
            raise OpError(f"exit code {result.code!r} outside {DOCUMENTED_EXIT_CODES}")
        if result.code == 2:
            _require(result.stderr.startswith("error: ")
                     and result.stderr.count("\n") == 1,
                     "exit 2 without a one-line diagnostic")
        key = golden_key(argv)
        if key in self.golden:
            expected = self.golden[key]
            if expected is not None:
                _require(result.code == expected["code"]
                         and result.stdout == expected["stdout"],
                         "output differs from the recorded output")
            return
        spec = fx.cli.parse_group(argv[2])
        if op.cls == "search-compression":
            self._check_compression(fx, spec, argv[4], result, tally)
        elif op.cls == "certify-compressed":
            self._check_certificate(fx, spec, argv[4], result, tally)
        elif op.cls == "sample-inertia":
            self._check_sample(fx, spec, int(argv[4]), result, tally)
        else:
            raise CheckFailed(f"no check for {op.cls}")

    @staticmethod
    def _parse(fx, spec, words):
        return fx.subgroup.from_generators(
            spec, [fx.groupcore.parse_word(spec, w) for w in words])

    def _check_compression(self, fx, spec, sub, result, tally) -> None:
        if result.code == 1:
            _require(result.stdout == "no witness found within bounds\n", "exit 1 text")
            return
        m = re.fullmatch(r"kind: compression\nH = (.*)\nK = (.*)\n"
                         r"rank\(H\) = (\d+), rank\(K\) = (\d+)\n", result.stdout)
        _require(result.code == 0 and m is not None, "witness text")
        h = self._parse(fx, spec, _split_words(m.group(1)))
        k = self._parse(fx, spec, _split_words(m.group(2)))
        _require(h == fx.cli.parse_subgroup(spec, sub), "witness H is not the input")
        _require(fx.subgroup.containment(h, k), "witness K does not contain H")
        hr, kr = tally.rank(fx, h), tally.rank(fx, k)
        _require(hr.exact and kr.exact, "witness ranks are not exact")
        _require((hr.value, kr.value) == (int(m.group(3)), int(m.group(4))),
                 "printed ranks differ from the certificates")
        _require(kr.value < hr.value, "witness does not drop rank")

    def _check_certificate(self, fx, spec, sub, result, tally) -> None:
        h = fx.cli.parse_subgroup(spec, sub)
        cert = tally.rank(fx, h)
        image = fx.certify.abelian_image_rank(h.stored_generators())
        holds = fx.subgroup.is_sqrt_closed(h) and cert.exact and image == cert.value
        if result.code == 1:
            _require(result.stdout == "no certificate\n" and not holds,
                     "certificate refused although it holds")
            return
        _require(result.code == 0 and holds, "certificate claimed but does not hold")
        _require(result.stdout == f"certified: sqrt-closed, rank {cert.value} ="
                 f" abelian image rank {image}\n", "certificate text")

    def _check_sample(self, fx, spec, trials, result, tally) -> None:
        lines = result.stdout.splitlines()
        m = re.fullmatch(r"inertia-sample trials=(\d+) checked=(\d+) skipped=(\d+)"
                         r" violations=(\d+)", lines[0] if lines else "")
        _require(m is not None, "report header")
        t, checked, skipped, nviol = map(int, m.groups())
        _require(t == trials and checked + skipped == trials, "trial counts")
        _require(nviol == len(lines) - 1, "violation count")
        _require(result.code == (1 if nviol else 0), "exit code")
        for line in lines[1:]:
            v = re.fullmatch(r"violation H=\[(.*)\] K=\[(.*)\] meet_rank=(\d+)"
                             r" k_rank=(\d+)", line)
            _require(v is not None, "violation text")
            h = self._parse(fx, spec, _split_words(v.group(1)))
            k = self._parse(fx, spec, _split_words(v.group(2)))
            mr = tally.rank(fx, fx.subgroup.intersect(h, k))
            kr = tally.rank(fx, k)
            _require(mr.exact and kr.exact and mr.value > kr.value
                     and (mr.value, kr.value) == (int(v.group(3)), int(v.group(4))),
                     "violation does not hold")


WORKLOADS = {w.name: w for w in (SubgroupLadder, FixSweep, CertifySearch)}
