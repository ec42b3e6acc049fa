"""Bundled example documents: the idelium KB and its hand-built model."""

from importlib import resources

from .kbfile import load_kb_text, load_model_text

__all__ = [
    "fixture_names",
    "fixture_filename",
    "fixture_bytes",
    "write_fixture",
    "load_fixture_kb",
    "load_fixture_model",
]

_FILES = {
    "idelium": "idelium.kb",
    "idelium_model": "idelium_model.pi",
}


def fixture_names():
    return tuple(sorted(_FILES))


def fixture_filename(name):
    try:
        return _FILES[name]
    except KeyError:
        known = ", ".join(fixture_names())
        raise KeyError(f"unknown fixture {name!r} (known: {known})") from None


def fixture_bytes(name):
    filename = fixture_filename(name)
    return resources.files("cider").joinpath("fixtures").joinpath(filename).read_bytes()


def write_fixture(name, out_path):
    data = fixture_bytes(name)
    with open(out_path, "wb") as handle:
        handle.write(data)
    return out_path


def load_fixture_kb(name="idelium", forgetful=False):
    return load_kb_text(fixture_bytes(name).decode("utf-8"), forgetful)


def load_fixture_model(name="idelium_model"):
    return load_model_text(fixture_bytes(name).decode("utf-8"))
