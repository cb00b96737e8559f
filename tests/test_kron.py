"""``hilbert.kron`` is the package's one Kronecker product: it equals numpy's
``kron`` bit for bit, and no package module calls numpy's."""

import ast
from pathlib import Path

import numpy as np
import pytest

import catalyx
from catalyx import hilbert as hl

SOURCES = sorted(Path(catalyx.__file__).parent.glob("*.py"))


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _pairs():
    rng = np.random.default_rng(34)
    return {
        "vectors": (_complex(rng, 3), _complex(rng, 4)),
        "factors": (_complex(rng, 6, 2), _complex(rng, 3, 3)),
        "columns": (_complex(rng, 4, 1), _complex(rng, 2, 1)),
        "operators": (_complex(rng, 3, 3), _complex(rng, 9, 9)),
        "real vector, complex vector": (rng.standard_normal(2), _complex(rng, 5)),
        "identity, complex column": (np.eye(3), _complex(rng, 4, 1)),
        "complex operator, real operator": (_complex(rng, 2, 2), rng.standard_normal((3, 3))),
        "signed zeros": (np.array([[-0.0, 1.0]]), np.array([[1j, -0.0 - 0.0j]])),
    }


@pytest.mark.parametrize("case", sorted(_pairs()))
def test_kron_equals_numpy_kron_bit_for_bit(case):
    a, b = _pairs()[case]
    got, want = hl.kron(a, b), np.kron(a, b)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shapes", [((2,), (2, 2)), ((2, 2), (2,)), ((2, 2, 1), (2, 2))])
def test_kron_refuses_other_ranks(shapes):
    with pytest.raises(ValueError):
        hl.kron(*(np.ones(s) for s in shapes))


def _numpy_krons(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "kron"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield f"{path.stem}:{node.lineno} reads {node.value.id}.kron"
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"
              and any(alias.name == "kron" for alias in node.names)):
            yield f"{path.stem}:{node.lineno} imports numpy's kron"


def test_the_package_calls_no_numpy_kron():
    assert [o for path in SOURCES for o in _numpy_krons(path)] == []


def test_the_rule_sees_numpy_kron(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import numpy as np\nfrom numpy import kron\nx = np.kron(1, 2)\n")
    assert list(_numpy_krons(src)) == ["mod:2 imports numpy's kron", "mod:3 reads np.kron"]
