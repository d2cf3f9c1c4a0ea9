"""One lattice-sum path: numpy's convolution and FFT calls in the package sit
inside ``echo_kernels._blocked_product``, the summing step of
``_lattice_apply``, and its FFT branch ``_overlap_add``; its band matrices
are made in one place, the geometry step ``_sum_geometry``.

Every time-domain quantity is a sum on the round-trip lattice, and
``_sum_geometry`` and ``_blocked_product`` are the one place that chooses
how to add it up (direct sum, banded matrix product or FFT overlap-add). A
numpy convolution or FFT anywhere else, or a band matrix made outside the
geometry step (a second product path, say in the two-photon tile walk or in
a check), would be a second path with its own branch rule and rounding.

Outside ``echo_kernels`` no module names a step of the sum
(``_lattice_apply``, ``_sum_geometry``, ``_lattice_blocks``,
``_blocked_product``, and the ``_Blocks`` and ``_SumGeometry`` they pass on)
or a threshold of its branch rule (``_MIN_FFT``, ``_MIN_FFT_WORK``). A
module that knew them could run a copy of the sum or guess which branch it
took, and the copy would go stale when the rule is retuned. Signals ask
``apply_train`` for their window, trains carry their sum's rounding bound
(``DeltaTrain.rounding``), and only the two-photon transforms name the tile
walk ``_tile_sums`` and the stride it takes, ``_lattice_stride``.
"""

import ast
from pathlib import Path

import ringecho

PACKAGE = Path(ringecho.__file__).parent
SUMS = {"convolve", "correlate", "fft", "ifft", "rfft", "irfft"}
ALLOWED = {("echo_kernels.py", "_blocked_product"), ("echo_kernels.py", "_overlap_add")}


def numpy_sum_calls(tree: ast.AST) -> list[tuple[str | None, str]]:
    """(enclosing function, callee) for each call of a numpy sum in ``SUMS``:
    an attribute reached from the numpy module (``np.convolve``,
    ``np.fft.rfft``) or a name imported from numpy, under any alias."""
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import numpy.fft" binds "numpy"
            modules.update(
                a.asname or a.name.split(".")[0] for a in node.names if a.name.startswith("numpy")
            )
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names.update({a.asname or a.name: a.name for a in node.names})
    found = []

    def visit(node: ast.AST, where: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func, callee = node.func, None
            if isinstance(func, ast.Name):
                callee = names.get(func.id)
            elif isinstance(func, ast.Attribute):
                root = func.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and (root.id in modules or root.id in names):
                    callee = func.attr
            if callee in SUMS:
                found.append((where, callee))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_numpy_sums_only_inside_lattice_apply():
    stray = [
        (path.name, where, callee)
        for path in sorted(PACKAGE.glob("*.py"))
        for where, callee in numpy_sum_calls(ast.parse(path.read_text()))
        if (path.name, where) not in ALLOWED
    ]
    assert stray == []


def test_np_convolve_has_one_call_site():
    tree = ast.parse((PACKAGE / "echo_kernels.py").read_text())
    assert [c for c in numpy_sum_calls(tree) if c[1] == "convolve"] == [
        ("_blocked_product", "convolve")
    ]


def calls_of(tree: ast.AST, name: str) -> list[str | None]:
    """The enclosing function of each call of ``name``: by its own name,
    under an alias it was imported as, or as an attribute
    (``echo_kernels._toeplitz_band``)."""
    spellings = {name} | {
        a.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if a.name == name and a.asname
    }
    found = []

    def visit(node: ast.AST, where: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id in spellings) or (
                isinstance(func, ast.Attribute) and func.attr == name
            ):
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_toeplitz_band_has_one_call_site():
    # the band matrices are made by the geometry step alone
    sites = [
        (path.name, where)
        for path in sorted(PACKAGE.glob("*.py"))
        for where in calls_of(ast.parse(path.read_text()), "_toeplitz_band")
    ]
    assert sites == [("echo_kernels.py", "_sum_geometry")]


def test_call_detector_sees_names_and_attributes():
    src = """
from ringecho import echo_kernels as ek
from ringecho.echo_kernels import _toeplitz_band as band

def walk(c):
    return ek._toeplitz_band(c, 0, 2, 2), _toeplitz_band(c, 0, 1, 1)

band(None, 0, 1, 1)
"""
    assert calls_of(ast.parse(src), "_toeplitz_band") == ["walk", "walk", None]


def test_detector_sees_every_spelling():
    src = """
import numpy as np
import numpy.fft
from numpy import convolve as conv
from numpy.fft import irfft

def _lattice_sum(f, g):
    return np.convolve(f, g)

def spectrum(x):
    return numpy.fft.rfft(x), irfft(x), conv(x, x), np.fft.fft(x)

def allowed(f, g):
    return correlate(f, g), convolve(f, g), f.convolve(g)
"""
    assert numpy_sum_calls(ast.parse(src)) == [
        ("_lattice_sum", "convolve"),
        ("spectrum", "rfft"),
        ("spectrum", "irfft"),
        ("spectrum", "convolve"),
        ("spectrum", "fft"),
    ]


def private_names(tree: ast.AST, names: set[str]) -> set[str]:
    """Those of ``names`` that a module names: imported, read as a name, or
    reached as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(a.name.split(".")[-1] for a in node.names)
    return found & names


# the steps of the lattice sum and the thresholds of its branch rule
STEPS = {
    "_lattice_apply", "_sum_geometry", "_lattice_blocks", "_blocked_product",
    "_Blocks", "_SumGeometry", "_MIN_FFT", "_MIN_FFT_WORK",
}


def test_lattice_sum_steps_named_only_in_echo_kernels():
    stray = [
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "echo_kernels.py"
        for name in sorted(private_names(ast.parse(path.read_text()), STEPS))
    ]
    assert stray == []


def test_lattice_sum_reached_only_through_apply_train():
    lattice = {"_tile_sums", "_lattice_stride"}
    stray = [
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in {"echo_kernels.py", "two_photon.py"}
        for name in sorted(private_names(ast.parse(path.read_text()), lattice))
    ]
    assert stray == []


def test_name_detector_sees_imports_names_and_attributes():
    src = """
from ringecho import echo_kernels as ek
from .echo_kernels import _lattice_stride as stride

def window(x):
    return ek._lattice_apply(x), _lattice_apply
"""
    found = private_names(ast.parse(src), {"_lattice_apply", "_lattice_stride", "apply_train"})
    assert found == {"_lattice_apply", "_lattice_stride"}
