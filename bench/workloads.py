"""The three workloads: set-up, one timed pass, and the correctness gate.

Every gate is built from the paper's invariants (place counts, genus,
group order, certificate shape), not from a snapshot of which places a
given commit happens to sample, so a change to the sampling strategy still
passes as long as the mathematics holds.

All package calls go through module attributes at call time (`ch.cli.main`,
never a name imported into this file), so a traced pass sees the wrapped
functions.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class PassResult:
    items: int                     # verified certificates, or classified places
    checks: list[tuple[str, bool]] = field(default_factory=list)
    output: object = None          # what the self-tests compare across passes

    def check(self, name: str, ok):
        self.checks.append((name, bool(ok)))


def _cli_pass(ch, argv: list[str], out: Path) -> tuple[int, bytes]:
    """Run the command line tool with its JSON written to `out`; return the
    exit code and the bytes written."""
    try:
        rc = ch.cli.main(argv + ["--out", str(out)])
        data = out.read_bytes()
    finally:
        out.unlink(missing_ok=True)
    return rc, data


# ---------------------------------------------------------------------------


class VerifyT2:
    """`charthree verify --t 2 --scope all`: the whole certificate pipeline."""

    name = "verify_t2"
    t = 2

    def setup(self, ch, seed: int, scratch: Path) -> dict:
        ch.curve.Curve(self.t)
        return {"seed": seed, "out": scratch / f"{self.name}-{os.getpid()}.json"}

    def describe(self, inputs) -> dict:
        return {"argv": self.argv(inputs)}

    def argv(self, inputs) -> list[str]:
        return ["verify", "--t", str(self.t), "--scope", "all",
                "--seed", str(inputs["seed"])]

    def run(self, ch, inputs) -> PassResult:
        rc, data = _cli_pass(ch, self.argv(inputs), inputs["out"])
        doc = json.loads(data)
        q, genus = doc["q"], doc["genus"]
        rows = doc["results"]
        certs = [c for r in rows for c in r.get("certificates", ())]
        res = PassResult(items=sum(1 for c in certs if c["ok"]), output=data)
        res.check("exit code 0", rc == 0)
        res.check("every row ok", rows and all(r["ok"] for r in rows))
        places = q * q + 1 + 2 * q * genus
        census = [r for r in rows if r["check"] == "census.count"]
        res.check(f"census reports {places} places",
                  places == 298 and len(census) == 1
                  and census[0]["detail"].startswith(f"{places} places"))
        gap_rows = [r for r in rows if r["check"].startswith("gap_certificates[")]
        res.check("gap rows exist", gap_rows)
        for r in gap_rows:
            cs = r["certificates"]
            res.check(f"{r['check']} witnesses genus = {genus} gaps",
                      genus == 12 and len({c["value"] for c in cs}) == genus
                      and len(cs) == genus
                      and all(c["ok"] and c["v_at_P"] == c["value"] - 1 for c in cs))
        nongap = {r["check"] for r in rows if r["check"].startswith("nongap_certificates[")}
        res.check("a non-gap row for each of the 5 rational classes", len(nongap) == 5)
        order = 2 * q * q // 3
        res.check(f"|G| = {order}", order == 54 and any(
            r["check"] == "autgroup.order" and r["detail"] == f"|G| = {order}"
            for r in rows))
        return res


class CensusT4:
    """`charthree aut --t 4 --q-cap 81`: all 181 522 rational places,
    classified, and their orbits under the 4374 automorphisms.  The
    command takes no seed, so every seed gives the same work."""

    name = "census_t4"
    t = 4

    def setup(self, ch, seed: int, scratch: Path) -> dict:
        ch.curve.Curve(self.t)
        return {"out": scratch / f"{self.name}-{os.getpid()}.json"}

    def describe(self, inputs) -> dict:
        return {"argv": self.argv(inputs), "seed_used": False}

    def argv(self, inputs) -> list[str]:
        return ["aut", "--t", str(self.t), "--q-cap", "81"]

    def run(self, ch, inputs) -> PassResult:
        rc, data = _cli_pass(ch, self.argv(inputs), inputs["out"])
        doc = json.loads(data)
        q, genus = doc["q"], doc["genus"]
        row = doc["results"][0]
        places = q * q + 1 + 2 * q * genus
        res = PassResult(items=sum(row["orbit_sizes"]), output=data)
        res.check("exit code 0", rc == 0)
        res.check("|G| = 2q^2/3 = 4374",
                  row["order"] == 2 * q * q // 3 == 4374 and row["inverses_ok"])
        res.check("orbit sizes sum to q^2 + 1 + 2qg = 181522",
                  sum(row["orbit_sizes"]) == places == 181522)
        res.check("orbits are class-constant", row["orbits_class_constant"] is True)
        return res


class CertifyT4:
    """`semigroup_at` + `verify_gaps` at q = 81 at one generic and one
    special non-rational place generated from the seed.

    Each pass starts from a fresh `Curve` and re-creates the places from
    their coordinates, so every pass pays the same lazy level, embedding
    and solver builds that one command line call pays; re-creating the
    places is about 1% of a pass.
    """

    name = "certify_t4"
    t = 4
    # Special places are drawn with gamma of order 13: class (i, K) =
    # (12, 3), whose gaps above 3K + 4 take the f_i / hat-function path.
    # Orders 26 (K = 16) and 28 also give special classes but cost about
    # 25% more, or (28) lift at a lower level; drawing the order from the
    # seed would make wall_s depend on the seed.
    special_order = 13
    max_tries = 2000

    def setup(self, ch, seed: int, scratch: Path) -> dict:
        curve = ch.curve.Curve(self.t)
        rng = random.Random(seed)
        places = [self._generic_place(ch, curve, rng),
                  self._special_place(ch, curve, rng)]
        return {"places": [
            {"level": p.a.level.n, "a": p.a.coeffs, "b": p.b.coeffs,
             "class": str(p.place_class), "degree": p.degree,
             "lift_level": 3 * p.a.level.n}
            for p in places]}

    def describe(self, inputs) -> dict:
        return {"places": [{k: spec[k] for k in ("class", "degree", "level", "lift_level")}
                           for spec in inputs["places"]]}

    @staticmethod
    def _lifts_above(ch, b) -> bool:
        """True when the Hermitian lift of a place with this b needs the
        cubic extension of b's level: B^3 - B = b is solvable in F_{3^n}
        exactly when the absolute trace of b vanishes.  The trace is
        Frobenius-invariant, so the raw b decides it before the place is
        built.  Both generated places are required to lift above, the
        common case (2 in 3), so every seed measures the same lift levels."""
        return not ch.fields.trace_p(b, b.level.n).is_zero()

    def _generic_place(self, ch, curve, rng):
        """Degree-2 place from random coordinates over F_{q^4}."""
        lvl = curve.tower.level(4 * self.t)
        for _ in range(self.max_tries):
            b = lvl.random_element(rng)
            pb = curve.p_map(b)
            a = curve.solve_artin_schreier(-(pb * pb))
            if a is None or not self._lifts_above(ch, b):
                continue
            p = curve.place_from_coords(a, b)
            if p.degree == 2 and p.place_class.kind == "nonrational_generic":
                return p
        raise RuntimeError("no generic degree-2 place found")

    def _special_place(self, ch, curve, rng):
        """Degree-3 place whose gamma has order 13: w = (gamma+1)/(gamma-1)
        and beta = w^2, b from p(b) = +-w, a from a^q + a = -beta, each
        shifted by a random kernel vector."""
        o = self.special_order
        lvl = curve.tower.level(6 * self.t)
        cof = (lvl.order() - 1) // o
        b_ker = curve.kernel_trace_p(lvl.n)
        a_ker = curve.kernel_artin_schreier(lvl.n)
        for _ in range(self.max_tries):
            z = lvl.random_element(rng)
            if z.is_zero():
                continue
            gamma = z ** cof
            if gamma == 1 or ch.fields.mult_order(gamma) != o:
                continue
            w = (gamma + 1) / (gamma - 1)
            if rng.randrange(2):
                w = -w
            b = curve.solve_trace_p(w)
            a = curve.solve_artin_schreier(-(w * w))
            if a is None or b is None:
                continue
            b = b + _kernel_offset(lvl, b_ker, rng)
            a = a + _kernel_offset(lvl, a_ker, rng)
            if not self._lifts_above(ch, b):
                continue
            p = curve.place_from_coords(a, b)
            if (p.degree > 1 and p.place_class.kind == "nonrational_special"
                    and p.place_class.i == o - 1):
                return p
        raise RuntimeError(f"no special place with gamma order {o} found")

    def run(self, ch, inputs) -> PassResult:
        curve = ch.curve.Curve(self.t)
        res = PassResult(items=0, output=[])
        for spec in inputs["places"]:
            lvl = curve.tower.level(spec["level"])
            place = curve.place_from_coords(lvl.element(spec["a"]), lvl.element(spec["b"]))
            tag = spec["class"]
            res.check(f"{tag}: class reproduced", str(place.place_class) == tag)
            assignment = ch.weierstrass.semigroup_at(curve, place)
            certs = ch.weierstrass.verify_gaps(curve, assignment)
            res.output.append(certs)
            res.items += sum(1 for c in certs if c.verified)
            res.check(f"{tag}: {curve.genus} certificates",
                      len(certs) == curve.genus == 1080)
            res.check(f"{tag}: all verified", all(c.verified for c in certs))
            res.check(f"{tag}: v_at_P = gap - 1",
                      all(c.v_at_P == c.value - 1 for c in certs))
            res.check(f"{tag}: certified gaps = semigroup_at gap set",
                      sorted(c.value for c in certs) == list(assignment.gap_set.gaps))
        return res


def _kernel_offset(lvl, kernel, rng):
    acc = lvl.zero()
    for v in kernel:
        acc = acc + rng.randrange(3) * v
    return acc


WORKLOADS = {w.name: w for w in (VerifyT2(), CertifyT4(), CensusT4())}
