"""Learning-rate schedules for tests that build no config entry."""


def constant(lr: float):
    """The schedule ``lr(epoch, step)`` that gives ``lr`` at every step."""
    return lambda epoch, step: lr
