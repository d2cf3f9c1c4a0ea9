"""A spy on the steps of the two-photon tile walk, ``echo_kernels._tile_sums``,
for tests that count what the walk runs itself."""

import contextlib

import pytest

import ringecho.echo_kernels as echo_kernels

# what a record keeps of each step's arguments: no array, so a long walk holds none
KEPT = {
    "_lattice_apply": lambda args: None,  # a t1 pass
    "_lattice_blocks": lambda args: args[3],  # the pad
    "_sum_geometry": lambda args: args[2:],  # stride, pad, blocks, columns, start, n_out
    "_blocked_product": lambda args: args[0].branch,
}


@contextlib.contextmanager
def walk_steps(recording=lambda: True):
    """Record ``(step, kept)`` for each call of a step in ``KEPT`` made while
    ``recording()`` holds, in order. The steps that a t1 pass
    (``_lattice_apply``) runs inside itself are not recorded: only those the
    walk runs on its strips are."""
    steps, in_pass = [], [False]

    def spy(name, fn):
        def spied(*args):
            if in_pass[0] or not recording():
                return fn(*args)
            steps.append((name, KEPT[name](args)))
            in_pass[0] = name == "_lattice_apply"
            try:
                return fn(*args)
            finally:
                in_pass[0] = False
        return spied

    with pytest.MonkeyPatch.context() as mp:
        for name in KEPT:
            mp.setattr(echo_kernels, name, spy(name, getattr(echo_kernels, name)))
        yield steps
