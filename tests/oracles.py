"""Test oracles that share no code with the library: exhaustive day-by-day
enumeration of the numbers born by a given day, and the recursive {L|R}
comparison on explicit game forms."""

from fractions import Fraction


def numbers_born_by(day: int):
    """List of all numbers (as Fractions) in M_day, constructed day by day
    with the simplicity rule; day 0 is [0]."""
    made = [Fraction(0)]
    for _ in range(day):
        new = []
        ext = sorted(made)
        new.append(ext[0] - 1)
        new.append(ext[-1] + 1)
        for a, b in zip(ext, ext[1:]):
            new.append((a + b) / 2)
        made = sorted(set(made) | set(new))
    return made


def game_geq(x, y, lr_of) -> bool:
    """x >= y iff no x^R <= y and x <= no y^L, on explicit game forms."""
    _, xr = lr_of(x)
    yl, _ = lr_of(y)
    if any(game_geq(y, r, lr_of) for r in xr):
        return False
    if any(game_geq(l, x, lr_of) for l in yl):
        return False
    return True
