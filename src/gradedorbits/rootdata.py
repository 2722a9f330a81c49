"""The four prime classifiers of SL(n) and Sp(2m): the bad primes, the
torsion primes, and the primes that the pretty good and the rather good
conditions exclude.

Their definitions quantify over every Z-closed family of roots and of
coroots, but for these two types each list is a theorem, and
``prime_report`` states it:

- SL(n) has no bad and no torsion primes (Steinberg, Torsion in reductive
  groups, Adv. Math. 15, 1975).  The pretty good and rather good
  exclusions are the primes dividing n, the order of the centre's
  character group X/ZA_(n-1) = Z/n (Herpel, On the smoothness of
  centralizers in reductive groups, Trans. AMS 365, 2013).
- Sp(2m), m >= 2, has 2 in all four lists: its highest root 2e_1 is
  2, ..., 2, 1 on the simple roots.  Sp(2) is SL(2).

``tests/oracles.py`` derives the four lists from the definitions, one
Smith form per Weyl-group orbit of closed families, and the tests check
that they equal these forms for every n up to ``MAX_N``.
"""

from __future__ import annotations

from .exactlin import DomainError, prime_factors


class UnsupportedType(DomainError):
    pass


class TooLarge(DomainError):
    """A root datum past the size bound of the prime report."""


# the largest n of each type for which the tests check the closed forms
# against the derivation from the definitions: that takes one Smith form
# per Weyl-group orbit of closed families, and the orbit count grows like
# the partition numbers (792 a side for SL(21), 1,770 for Sp(26))
MAX_N = {"sl": 21, "sp": 26}


def _check_size(kind: str, label: str, n: int) -> None:
    if n > MAX_N[kind]:
        raise TooLarge(
            "n", f"{label} is too large: the prime report is limited to n <= {MAX_N[kind]}"
        )


def prime_report(kind: str, n: int) -> dict:
    """The bad primes, the torsion primes, and the pretty good and rather
    good exclusions of SL(n) or Sp(n), each a sorted list, in that order."""
    kind = kind.lower()
    if kind == "sl":
        if n < 2:
            raise UnsupportedType("n", "SL needs n >= 2")
        _check_size(kind, f"SL({n})", n)
        bad, torsion, excluded = [], [], sorted(prime_factors(n))
    elif kind == "sp":
        if n < 2 or n % 2 != 0:
            raise UnsupportedType("n", "Sp needs even n >= 2")
        _check_size(kind, f"Sp({n})", n)
        bad, torsion, excluded = ([2], [2], [2]) if n >= 4 else ([], [], [2])
    else:
        raise UnsupportedType("type", f"unsupported type {kind!r}")
    return {
        "good_excluded": bad,
        "torsion": torsion,
        "pretty_good_excluded": excluded,
        "rather_good_excluded": list(excluded),
    }
