import importlib.util
from pathlib import Path

import numpy as np
import pytest

from tbscatter.model import assemble_full_center_matrix, build_center
from tbscatter.verify import random_hermitian

REPO_ROOT = Path(__file__).resolve().parent.parent
SPECS_DIR = REPO_ROOT / "specs"


def load_perfbench(name: str):
    """A benchmark module loaded by path, as the benchmark runs it."""
    path = REPO_ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def specs_dir() -> Path:
    return SPECS_DIR


def random_delta_like(rng: np.random.Generator, n_a: int, n_b: int, energy: float) -> np.ndarray:
    """A matrix with the structure of an energy-shifted valid center."""
    h_a = random_hermitian(rng, n_a)
    h_b = random_hermitian(rng, n_b)
    h_ab = rng.standard_normal((n_a, n_b)) + 1j * rng.standard_normal((n_a, n_b))
    n = n_a + n_b
    m = np.zeros((n, n), dtype=np.complex128)
    m[:n_a, :n_a] = h_a - energy * np.eye(n_a)
    m[:n_a, n_a:] = h_ab
    m[n_a:, :n_a] = -h_ab.conj().T
    m[n_a:, n_a:] = h_b - energy * np.eye(n_b)
    return m


def exceptional_point_center(seed: int = 11):
    """A 3-site valid center (n_a = 2, n_b = 1) at an exceptional point.

    The coupling scale is bisected to where two real eigenvalues of H_C
    coalesce and turn into a complex pair, so H_C is nearly defective there
    (eigenvector condition number about 5e6 for seed 11).
    """
    rng = np.random.default_rng(seed)
    h_a = random_hermitian(rng, 2)
    h_b = random_hermitian(rng, 1)
    g = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))

    def complex_pair(scale: float) -> bool:
        hc = assemble_full_center_matrix(build_center(h_a, h_b, scale * g))
        return bool(np.abs(np.linalg.eigvals(hc).imag).max() > 1e-7)

    lo, hi = 0.0, 1.0
    while not complex_pair(hi):
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if complex_pair(mid) else (mid, hi)
    return build_center(h_a, h_b, lo * g)
