import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from milsent import cli, config
from milsent.eventstudy import EventLabelConfig
from milsent.mil import TrainConfig
from milsent.preprocess import PreprocessConfig

README = Path(__file__).resolve().parent.parent / "README.md"

KNOWN = {**cli._PREPROCESS_KEYS, **cli._EVENT_KEYS, **cli._TRAIN_KEYS}

STAGES = [
    (PreprocessConfig(), cli._PREPROCESS_KEYS),
    (EventLabelConfig(), cli._EVENT_KEYS),
    (TrainConfig(), cli._TRAIN_KEYS),
]

# Values chosen to reach each cast and check, mixed with arbitrary one-line
# text (a file read in text mode splits lines at \n and \r only).
EDGE_VALUES = [
    "", "0", "-1", "1", "2", "0.5", "1e400", "-1e400", "nan", "inf", "-inf", "9" * 5000,
    "true", "no", "YES", "maybe", "[x", "a{4294967296}", "(" * 1000 + ")" * 1000,
    "(?<=a+)b", r"\d+", "= =",
]
values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
            max_size=30),
)
lines = st.lists(st.tuples(st.sampled_from(sorted(KNOWN)), values), max_size=8)


@pytest.mark.parametrize("base,keys", STAGES, ids=["preprocess", "event", "train"])
@settings(max_examples=150, deadline=None)
@given(entries=lines)
def test_apply_gives_checked_config_or_config_error(tmp_path_factory, base, keys, entries):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text("".join(f"{key} = {raw}\n" for key, raw in entries), encoding="utf-8")
    try:
        result = config.apply(path, config.load_flat_config(path, KNOWN), base, keys)
    except config.ConfigError as exc:
        assert str(exc).startswith(f"{path}: line ")
        return
    assert type(result) is type(base)
    for f in fields(result):
        assert type(getattr(result, f.name)) is type(f.default), f.name
    for key, field in keys.items():
        raws = [raw.strip() for k, raw in entries if k == key]
        if raws and isinstance(getattr(result, field), tuple):
            assert getattr(result, field) == tuple(raws)
        elif raws and isinstance(getattr(result, field), str):
            assert getattr(result, field) == raws[-1]
        elif not raws:
            assert getattr(result, field) == getattr(base, field)


def _readme_paragraph(heading: str) -> str:
    """The README paragraph that opens with `**heading**`, on one line."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"**{heading}**")
    return " ".join(text[start:text.index("\n\n", start)].split())


def test_readme_names_every_config_key():
    # the key list runs from the colon after the heading's parenthesis to
    # the first full stop
    keys = _readme_paragraph("Config file").split("):", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", keys) == list(KNOWN)


def test_readme_names_every_model_config_field():
    names = re.search(r"`config` \(([^)]*)\)", _readme_paragraph("Model file")).group(1)
    assert re.findall(r"`(\w+)`", names) == [f.name for f in fields(TrainConfig)]
