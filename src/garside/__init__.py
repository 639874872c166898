"""
garside: normal forms, lattice operations and two-sided decompositions of
finite Garside structures, with acceptors for their normal-form languages.
"""

from .automata import (NFAutomaton, build_factor_automaton, build_nf_automaton,
                       count_accepted, export, project_product_to_pair,
                       translate_pair_to_product)
from .builtins import (GermSpec, braid_germ, direct_product_germ, divisor_germ,
                       free_abelian_germ, germ_from_spec, wreath_example_germ)
from .element import (NormalWord, UNIT, atom_length, balance_witness, divides,
                      format_nf, gcd, is_balanced, is_normal, lcm,
                      left_complement, letters, multiply, normal_form, rdivides,
                      rgcd, right_complement, rlcm, simple)
from .germ import (Germ, GermError, GermSyntaxError, GermValidationError,
                   ValidationReport, format_germ, make_germ, parse_germ,
                   validate_germ)
from .normal_forms import (NFPair, is_normal_gh_gh, is_normal_gh_hg,
                           is_normal_hg_gh, is_normal_hg_hg, merge_nf, psi,
                           split_nf)
from .quasicenter import (AtomClassPartition, atom_classes, delta_of_simple,
                          is_delta_pure, quasi_center_basis)
from .suites import GERM_SUITES, ZS_SUITES, Options, SuiteReport, run_suite
from .zappa_szep import (DecompositionFailure, NotAUnionOfClasses, ZSStructure,
                         build, gh_decompose, hg_decompose)

__all__ = [name for name in dir() if not name.startswith("_")]
