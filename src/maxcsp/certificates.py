"""Transformation certificates: the record every reduction returns and
its one builder.  Nothing here imports a reduction, so parsers can read
certificates without depending on the transforms."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

AFFINE = "affine"
EXISTENTIAL = "existential"
KIND_ADDITIVE = "additive"
KIND_LINEAR = "linear"


@dataclass(frozen=True)
class TransformCertificate:
    """Accounting record for one transformation instance.

    Checked inequalities (see verify_transform):
      additive:  n_out <= n_in + var_bound
      linear:    n_out <= var_bound * n_in
      always:    size_out <= size_factor * (size_in + n_in)
                 weight_out <= weight_factor * (weight_in + 1) * n_in**weight_exponent
    An affine value map (a, b) asserts phi2(x) = a * phi1(x) + b pointwise,
    and t_out = a * t_in + b, whenever the transform preserves the variable
    set.
    """

    label: str
    kind: str
    n_in: int
    n_out: int
    size_in: int
    size_out: int
    weight_in: int
    weight_out: int
    t_in: int
    t_out: int
    value_map: tuple
    var_bound: int
    size_factor: int
    weight_factor: int
    weight_exponent: int
    stages: tuple = ()

    def is_affine(self) -> bool:
        return self.value_map[0] == AFFINE


def build_certificate(label, phi1, phi2, kind=None, value_map=None,
                      var_bound=None, size_factor=None, weight_factor=None,
                      weight_exponent=None, stages=()) -> TransformCertificate:
    """The certificate of phi1 -> phi2.  A lemma passes its kind, value map
    and proven bounds.  A composition omits them: its kind and value map
    follow from its stages, and its bounds are measured on the two ends
    (the measured values are what the conditions are checked against)."""
    n_in, n_out = phi1.nvars, phi2.nvars
    if kind is None:
        kind = (KIND_ADDITIVE if all(s.kind == KIND_ADDITIVE for s in stages)
                else KIND_LINEAR)
    if value_map is None:
        value_map = compose_value_maps([s.value_map for s in stages])
    if var_bound is None:
        var_bound = (max(0, n_out - n_in) if kind == KIND_ADDITIVE
                     else max(1, -(-n_out // n_in)))
    if size_factor is None:
        size_factor = max(1, -(-phi2.size // (phi1.size + n_in)))
    if weight_exponent is None:
        weight_exponent = max((s.weight_exponent for s in stages), default=0)
    if weight_factor is None:
        denom = (phi1.total_weight + 1) * n_in ** weight_exponent
        weight_factor = max(1, -(-phi2.total_weight // denom))
    return TransformCertificate(
        label=label, kind=kind, value_map=value_map, var_bound=var_bound,
        size_factor=size_factor, weight_factor=weight_factor,
        weight_exponent=weight_exponent, stages=tuple(s.label for s in stages),
        **endpoints(phi1, phi2))


def endpoints(phi1, phi2) -> dict:
    """The certificate fields that describe the two ends of phi1 -> phi2."""
    return {"n_in": phi1.nvars, "n_out": phi2.nvars,
            "size_in": phi1.size, "size_out": phi2.size,
            "weight_in": phi1.total_weight, "weight_out": phi2.total_weight,
            "t_in": phi1.threshold, "t_out": phi2.threshold}


def compose_value_maps(maps) -> tuple:
    a, b = Fraction(1), Fraction(0)
    for m in maps:
        if m[0] != AFFINE:
            return (EXISTENTIAL,)
        a2, b2 = Fraction(m[1]), Fraction(m[2])
        a, b = a2 * a, a2 * b + b2
    return (AFFINE, a, b)
