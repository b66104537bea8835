"""Domain error types.

Every error carries a stable machine-readable ``slug`` used by the CLI,
which prints failures as a single line ``error: <slug>[: detail]``.
"""


class OddCoxeterError(Exception):
    slug = "error"


class CertificateFailed(OddCoxeterError):
    """A result failed the check that certifies it; nothing is returned."""

    slug = "certificate-failed"


class OutputTooLarge(OddCoxeterError):
    """The answer would exceed its size cap; nothing is built."""

    slug = "output-too-large"


# system validation
class NotSymmetric(OddCoxeterError):
    slug = "not-symmetric"


class DiagonalNotOne(OddCoxeterError):
    slug = "diagonal-not-one"


class EvenOrSmallExponent(OddCoxeterError):
    slug = "even-or-small-exponent"


class SystemFileError(OddCoxeterError):
    slug = "bad-system-file"


class EndoFileError(OddCoxeterError):
    slug = "bad-automorphism-file"


# classification / shapes
class NotInTW(OddCoxeterError):
    slug = "not-in-tw"


class MalformedInvariant(OddCoxeterError):
    slug = "malformed-invariant"


class NotStarForm(OddCoxeterError):
    slug = "not-star-form"


class NotAdjacentPair(OddCoxeterError):
    slug = "not-adjacent-pair"


class UnsupportedShape(OddCoxeterError):
    slug = "unsupported-shape"


# word engine
class BadLetter(OddCoxeterError):
    slug = "bad-letter"


class OrbitBudgetExceeded(OddCoxeterError):
    slug = "budget"


class NotInvolution(OddCoxeterError):
    slug = "not-involution"


class NoDescentStep(OddCoxeterError):
    slug = "no-descent-step"


class NotInParabolic(OddCoxeterError):
    slug = "not-in-parabolic"


# automorphism kit
class BadThetaExponent(OddCoxeterError):
    slug = "bad-theta-exponent"


class BlockViolatingPermutation(OddCoxeterError):
    slug = "block-violating-permutation"


class NotAutomorphism(OddCoxeterError):
    slug = "not-automorphism"


class IsInnerNoWitness(OddCoxeterError):
    slug = "is-inner-no-witness"


class NoMergeWitness(OddCoxeterError):
    slug = "no-merge-witness"


class NotSurjective(OddCoxeterError):
    slug = "not-surjective"


# unit arithmetic
class EvenModulus(OddCoxeterError):
    slug = "even-modulus"


class LabelTooLarge(OddCoxeterError):
    slug = "label-too-large"


# path-family toolkit
class RankTooSmall(OddCoxeterError):
    slug = "rank-too-small"


class NotAHomomorphism(OddCoxeterError):
    slug = "not-a-homomorphism"


class ImageTooLarge(OddCoxeterError):
    slug = "image-too-large"


class NonIntegerResult(OddCoxeterError):
    slug = "non-integer-result"


class BadIndex(OddCoxeterError):
    slug = "bad-index"


class NotBijectiveHom(OddCoxeterError):
    slug = "not-bijective-hom"


class GroupTooLarge(OddCoxeterError):
    slug = "group-too-large"


class BadGroupTable(OddCoxeterError):
    slug = "bad-group-table"


# oracle
class BallBudgetExceeded(OddCoxeterError):
    slug = "budget"


class NegativeRadius(OddCoxeterError):
    slug = "negative-radius"


class BadSearchRequest(OddCoxeterError):
    slug = "bad-search-request"
