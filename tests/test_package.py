import xorcodes as xc
from xorcodes import decoding, gf2, latin, search


def test_package_exports_are_the_module_exports():
    modules = (gf2, latin, decoding, search)
    assert xc.__all__ == ["__version__", *(name for m in modules for name in m.__all__)]
    for m in modules:
        for name in m.__all__:
            assert getattr(xc, name) is getattr(m, name)
