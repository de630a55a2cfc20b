"""The package's public names are exactly its modules' public names."""
import fdradiance
from fdradiance import (
    acceptance,
    errors,
    mirror,
    quadrature,
    specfun,
    spectra,
    trajectory,
)


def test_public_names_are_the_module_lists():
    modules = (errors, specfun, quadrature, trajectory, spectra, mirror,
               acceptance)
    union = [name for mod in modules for name in mod.__all__]
    assert len(set(union)) == len(union)
    assert fdradiance.__all__ == ["__version__"] + union
    for mod in modules:
        for name in mod.__all__:
            assert getattr(fdradiance, name) is getattr(mod, name)
