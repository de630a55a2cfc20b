"""The package's public names are exactly its modules' public names."""
import ast

import fdradiance
from fdradiance import (
    acceptance,
    cli,
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


def test_front_ends_import_no_private_spectra_name():
    # the CLI and the acceptance suite reach the distribution routes
    # through the public grid alone, never a private helper of spectra
    for mod in (cli, acceptance):
        with open(mod.__file__, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        private = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and node.module in ("spectra", "fdradiance.spectra")
                   for alias in node.names if alias.name.startswith("_")]
        assert private == [], mod.__name__
