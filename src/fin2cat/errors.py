"""Error taxonomy shared by every module.

Each exception names the law or contract that failed; messages carry the
concrete witnesses (which objects/morphisms broke the law) so failures are
actionable without a debugger.
"""


class AxiomViolation(ValueError):
    """A category law (identity, associativity, typing) fails."""


class FunctorialityViolation(ValueError):
    """A functor candidate fails to preserve structure."""


class NaturalityViolation(ValueError):
    """A transformation candidate has a non-commuting square."""


class BoundaryMismatch(ValueError):
    """Source/target of a cell does not match the required boundary."""


class ParallelismViolation(ValueError):
    """A 2-cell generator's source and target paths are not parallel."""


class MalformedWord(ValueError):
    """A pasting word's steps do not chain along its boundary."""


class CoherenceViolation(ValueError):
    """A lax-morphism coherence equation fails."""


class MonadLawViolation(ValueError):
    """Monad data breaks a unit or associativity law."""


class ParseError(ValueError):
    """An input document is syntactically malformed."""


class UnknownCommand(ValueError):
    """The CLI was asked to run a command it does not define."""


class NotEnumerated(ValueError):
    """A reader asked for the whole of a category that is only a view."""


class Verdict:
    """Boolean check result that can carry failure witnesses.

    Truthy iff the check passed; ``failures`` lists human-readable witness
    strings (failing equation plus the object it failed at).
    """

    def __init__(self, ok, failures=()):
        self.ok = bool(ok)
        self.failures = list(failures)

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "Verdict(ok)"
        return "Verdict(failed: %s)" % "; ".join(self.failures)


def verdict_all(failures):
    """Build a Verdict from a list of collected failure witnesses."""
    return Verdict(not failures, failures)
