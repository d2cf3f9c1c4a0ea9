"""Dict view of a ``DeltaTrain``, for tests that compare with pairwise
reference loops written over ``{offset: weight}`` maps."""


def weights(train):
    """``{offset: weight}`` over the train's whole span, zeros included."""
    return dict(zip(train.offsets, train.c.tolist()))
