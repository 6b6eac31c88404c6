"""Per-sample vineyards and per-row CSV: the oracle of the differential test
in test_vineyard.py.

`path_vineyard` checks every sample's monotonicity, builds its indexing,
walks the reduction to it, and reads every vine's label off the bijection
composed so far, at every sample, whether or not the sample's order moved; it
composes the update bijection of each walk in turn instead of carrying one
relabelling. `vines_to_csv` formats each param of each vine, and each value
of each row with its own int true division. Both are the way pdbundle did
this before it worked per order change and per distinct value; the
reduction and its walk
(`Reduction.transpose_to`) and the update bijection of one walk
(`update_image`) are pdbundle's own.
"""
from decimal import Decimal
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from pdbundle.complexes import (
    SimplexIndexing,
    SimplicialComplex,
    ValidationError,
    check_monotone,
)
from pdbundle.persistence import Reduction
from pdbundle.vineyard import PairBijection, Sample, Vine, update_image


def path_vineyard(K: SimplicialComplex, samples: Sequence[Sample],
                  params: Optional[Sequence] = None
                  ) -> Tuple[List[Vine], PairBijection]:
    if not samples:
        raise ValidationError("path_vineyard needs at least one filtration")
    params = list(range(len(samples)) if params is None else params)
    samples = list(samples)
    if len(params) != len(samples):
        raise ValidationError("params and filtrations differ in length")

    def indexing(nums: Sequence[int], den: int) -> SimplexIndexing:
        if den <= 0:
            raise ValidationError(f"sample denominator {den} is not positive")
        if len(nums) != K.n or any(nums[j] > nums[i] for j, i in K.facet_pairs):
            check_monotone(K, [Fraction(v, den) for v in nums])
        return SimplexIndexing(sorted(range(K.n), key=nums.__getitem__))

    prev = indexing(*samples[0])
    red = Reduction(K, prev)
    first = red.elements()
    image = {e: e for e in first}
    vines = [Vine(params, samples, [e]) for e in sorted(first)]
    for nums, den in samples[1:]:
        idx = indexing(nums, den)
        if idx != prev:
            source = red.elements()
            step = update_image(source, red.transpose_to(idx))
            image = {e: step[x] for e, x in image.items()}
        for vine in vines:
            vine.labels.append(image[vine.labels[0]])
        prev = idx
    return vines, PairBijection(first, red.elements(), image)


def _value(vid: int, t: str, num: int, den: int) -> str:
    try:
        return repr(num / den)
    except OverflowError:
        raise ValidationError(f"vine {vid} at t={t}: value "
                              f"{Decimal(num) / den:.17g} is too large for a "
                              f"float") from None


def _param(vid: int, t) -> str:
    try:
        return repr(float(t))
    except OverflowError:
        t = Fraction(t)
        raise ValidationError(f"vine {vid}: param "
                              f"{Decimal(t.numerator) / t.denominator:.17g} is "
                              f"too large for a float") from None


def vines_to_csv(K: SimplicialComplex, vines) -> str:
    """Rows in order, after the vine's params: a param too large for a float
    is reported before any value."""
    lines = ["vine_id,t,birth,death"]
    for vid, vine in enumerate(vines):
        ts = [_param(vid, t) for t in vine.params]
        for t, (nums, den), (b, d) in zip(ts, vine.values, vine.labels):
            birth = _value(vid, t, nums[b], den)
            death = "inf" if d is None else _value(vid, t, nums[d], den)
            lines.append(f"{vid},{t},{birth},{death}")
    return "\n".join(lines) + "\n"
