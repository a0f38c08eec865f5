"""Exception types shared across the package.

The CLI maps these onto process exit codes; library callers can catch them
individually.
"""


class ValidationError(ValueError):
    """Malformed input: bad configuration, file, region, or argument."""


class ConditioningError(RuntimeError):
    """A numeric procedure refused to proceed (ill-conditioned system,
    non-finite intermediate, or an unmet solver tolerance)."""


class PopulationCapError(RuntimeError):
    """A simulation exceeded its configured population cap.

    Attributes
    ----------
    t : int
        Generation at which the cap was breached.
    population : int
        Population size that would have been created.
    cap : int
        The configured limit.
    """

    def __init__(self, t: int, population: int, cap: int):
        self.t = t
        self.population = population
        self.cap = cap
        super().__init__(
            f"population {population} at generation {t} exceeds cap {cap}"
        )

    def __reduce__(self):
        # Rebuilt from its three values, so it crosses a process boundary.
        return type(self), (self.t, self.population, self.cap)
