"""Exact arithmetic for surreal normal forms, ordinals, gap labels and
transfinite nested tuples (skands), with a REPL calculator on top."""

from .errors import (CalcError, DivisionByZero, IllFormedGame, InfiniteLength,
                     InsufficientPrecision, InvalidPeriod, IoError,
                     LeadingCoefficientNotOne, NoConvergenceDetected,
                     NonPositive, NotASet, NotInDomain, NotIndecomposable,
                     NotLimit, OutOfClutchRegion, OutputTooLarge, ParseError,
                     PrefixTooLarge, RealPartNotZero, UnsupportedDescriptor,
                     ZeroInput)
from .ordinals import (OMEGA, Ordinal, OrdinalClass, classify_ordinal,
                       divmod_omega_pow, ord_add, ord_cmp, ord_mul,
                       ord_nat_add, ord_nat_mul, ord_sub_left)
from .surreal import (Dyadic, EpsilonAtom, Number, TruncatedNumber, add,
                      birthday, divide, epsilon, from_ordinal, from_rational,
                      from_terms, invert, mul, negate, nf_cmp, omega_pow,
                      real_limit_from_sequences, simplest_dyadic_game, sub)
from .explog import Decomposition, decompose, exp, in_ln_domain, leader, ln
from .gaps import (AddRamp, DyadicRamp, GapLabel, GeometricRamp, HarmonicRamp,
                   JumpReport, OrdinalRamp, ScaledHarmonic, classify, gap_of,
                   in_jump_interior, jump_report, left_right_construct)
from .skands import (Atom, Constant, Cycle, Extraordinary, Fset, Periodic,
                     Reflexive, Skand, TransfiniteMap, brace_coordinates,
                     constant_skand, coskand_kind, coskand_to_setterm,
                     cycle_skand, encode_skand, is_periodic, is_reflexive,
                     is_self_similar, is_solution, is_strictly_periodic,
                     is_weakly_periodic, make_coskand, make_skand,
                     min_finite_period, normalize, prepend_component,
                     restrict, skand_equal, solve_mirimanoff, value_at)
from .exprs import (brace_render, number_from_json, number_to_json,
                    ordinal_to_json, parse_number, parse_number_expr,
                    parse_ordinal, parse_setterm, parse_skand, render_number,
                    render_ordinal, setterm_to_json)

__version__ = "0.1.0"
