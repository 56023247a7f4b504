"""Malformed input on the load path raises typed errors, never raw ones.

Regression tests for spots where a damaged document or package used to
escape the :class:`~repro.core.errors.CmifError` hierarchy with a bare
``ValueError``/``KeyError``/``TypeError``/``AttributeError``.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.core.document import CmifDocument
from repro.core.errors import FormatError, TransportError
from repro.core.nodes import SeqNode
from repro.corpus.generate import make_media_document
from repro.format.json_io import value_from_obj
from repro.format.parser import parse_document
from repro.format.writer import write_document
from repro.transport import package


class TestTimebase:
    def test_non_numeric_entry_in_from_root(self):
        root = SeqNode("document")
        root.attributes.set("timebase", {"byte-rate": "fast"})
        with pytest.raises(FormatError, match="'byte-rate' must be a "
                                              "number"):
            CmifDocument.from_root(root)

    def test_non_numeric_entry_in_text(self):
        text = write_document(make_media_document(4, events=6))
        assert "(byte-rate 176400)" in text
        damaged = text.replace("(byte-rate 176400)", "(byte-rate fast)")
        with pytest.raises(FormatError, match="byte-rate"):
            parse_document(damaged)

    def test_numeric_entries_still_load(self):
        root = SeqNode("document")
        root.attributes.set("timebase", {"frame-rate": 30})
        assert CmifDocument.from_root(root).timebase.frame_rate == 30.0


def damaged_package(mutate) -> str:
    payload = json.loads(package.pack(make_media_document(5, events=8)))
    descriptors = payload["cmif-package"]["descriptors"]
    mutate(descriptors[next(iter(descriptors))])
    return json.dumps(payload)


class TestDescriptorDecode:
    @pytest.mark.parametrize("field", ["descriptor_id", "medium"])
    def test_missing_field_is_named(self, field):
        text = damaged_package(lambda obj: obj.pop(field))
        with pytest.raises(TransportError, match=repr(field)):
            package.unpack(text)

    def test_non_object_entry(self):
        payload = json.loads(package.pack(make_media_document(5, events=8)))
        descriptors = payload["cmif-package"]["descriptors"]
        descriptors[next(iter(descriptors))] = ["not", "an", "object"]
        with pytest.raises(TransportError, match="must be an object"):
            package.unpack(json.dumps(payload))

    def test_non_object_attributes(self):
        text = damaged_package(
            lambda obj: obj.__setitem__("attributes", [1, 2]))
        with pytest.raises(TransportError, match="'attributes'"):
            package.unpack(text)

    @pytest.mark.parametrize("field,value", [("block_id", [1]),
                                             ("descriptor_id", 5),
                                             ("medium", ["video"])])
    def test_non_string_id_is_named(self, field, value):
        text = damaged_package(lambda obj: obj.__setitem__(field, value))
        with pytest.raises(TransportError, match=repr(field)):
            package.unpack(text)

    def test_non_list_pointers(self):
        def damage(obj):
            obj["attributes"]["keywords"] = {"$pointers": 5}
        with pytest.raises(FormatError, match=r"malformed \$pointers"):
            package.unpack(damaged_package(damage))


def envelope(**fields) -> str:
    """A package whose envelope carries ``fields`` (None drops one)."""
    payload = json.loads(package.pack(make_media_document(5, events=8)))
    body = payload["cmif-package"]
    for name, value in fields.items():
        if value is None:
            body.pop(name)
        else:
            body[name] = value
    return json.dumps(payload)


class TestEnvelopeDecode:
    def test_top_level_array(self):
        with pytest.raises(TransportError, match="'cmif-package'"):
            package.unpack(json.dumps([{"cmif-package": {}}]))

    def test_missing_document(self):
        with pytest.raises(TransportError, match="missing its 'document'"):
            package.unpack(envelope(document=None))

    @pytest.mark.parametrize("value", [5, ["(cmif)"], {"text": "x"}])
    def test_non_string_document(self, value):
        with pytest.raises(TransportError, match="'document' must be"):
            package.unpack(envelope(document=value))

    @pytest.mark.parametrize("field", ["blocks", "descriptors"])
    def test_table_given_as_a_list(self, field):
        with pytest.raises(TransportError, match=f"{field!r} must be an "
                                                 f"object, got list"):
            package.unpack(envelope(**{field: [{"block_id": "b"}]}))

    def test_non_object_block_entry(self):
        with pytest.raises(TransportError, match="block entry must be"):
            package.unpack(envelope(blocks={"b": "raw"}))

    @pytest.mark.parametrize("field", ["block_id", "medium", "encoding",
                                       "data"])
    def test_block_entry_missing_field(self, field):
        entry = {"block_id": "b", "medium": "text", "encoding": "utf-8",
                 "data": "aGk=", "checksum": ""}
        del entry[field]
        with pytest.raises(TransportError, match=repr(field)):
            package.unpack(envelope(blocks={"b": entry}))

    @pytest.mark.parametrize("field", ["block_id", "encoding", "data"])
    def test_block_entry_non_string_field(self, field):
        entry = {"block_id": "b", "medium": "text", "encoding": "utf-8",
                 "data": "aGk=", "checksum": ""}
        entry[field] = [1]
        with pytest.raises(TransportError, match=repr(field)):
            package.unpack(envelope(blocks={"b": entry}))

    def test_undecodable_payload(self):
        entry = {"block_id": "b", "medium": "text", "encoding": "utf-8",
                 "data": "/w==", "checksum": ""}
        with pytest.raises(TransportError, match="cannot decode"):
            package.unpack(envelope(blocks={"b": entry}))

    def test_empty_tables_still_load(self):
        result = package.unpack(envelope(blocks=[], descriptors={}))
        assert result.embedded_blocks == 0


class TestValueDecode:
    @pytest.mark.parametrize("raw", [[1], [1, "ms", 2], 5, ["x", "ms"],
                                     [1, 7], None])
    def test_malformed_time(self, raw):
        with pytest.raises(FormatError, match=r"malformed \$time"):
            value_from_obj({"$time": raw})

    def test_malformed_rect(self):
        with pytest.raises(FormatError, match=r"malformed \$rect"):
            value_from_obj({"$rect": [1, 2, 3]})

    def test_well_formed_time_still_decodes(self):
        assert value_from_obj({"$time": [2, "s"]}).value == 2.0

    def test_malformed_time_inside_a_package(self):
        def damage(obj):
            obj["attributes"]["duration"] = {"$time": [1]}
        with pytest.raises(FormatError, match=r"malformed \$time"):
            package.unpack(damaged_package(damage))


LEAF = "/#0/#0/#0/#0/e0"

BAD_EDITS = [
    ({"op": "retime", "path": "x"}, "retime.*'duration_ms'"),
    ({"op": "retime", "path": LEAF, "duration_ms": "abc"},
     "retime.*'duration_ms'"),
    ({"op": "retime", "path": LEAF, "duration_ms": float("nan")},
     "retime.*'duration_ms'"),
    ({"op": "retime", "path": 5, "duration_ms": 100}, "retime.*'path'"),
    ({"op": "remove_arc", "owner": "/", "index": [1]},
     "remove_arc.*'index'"),
    ({"op": "reorder", "parent": "/", "child": "c", "index": True},
     "reorder.*'index'"),
    ({"op": "add_arc", "owner": "/", "offset_ms": "soon"},
     "add_arc.*'offset_ms'"),
    ({"op": "add_arc", "owner": "/", "condition": 7},
     "add_arc.*'condition'"),
    ({"op": "splice", "path": LEAF}, "splice.*'parent'"),
    ({"op": "fold"}, "unknown edit op 'fold'"),
    ({"op": ["retime"]}, r"unknown edit op \['retime'\]"),
    (["retime"], "must be a JSON object"),
]


class TestEditSpecs:
    """Malformed live-edit specs raise FormatError naming op and field."""

    @pytest.mark.parametrize("spec,message", BAD_EDITS)
    def test_live_editor_rejects(self, spec, message):
        from repro.pipeline.patch import LiveEditor
        document = make_media_document(5, events=8)
        revision = document.revision
        editor = LiveEditor(document)
        with pytest.raises(FormatError, match=message):
            editor.apply(spec)
        assert document.revision == revision

    @pytest.mark.parametrize("spec,message", BAD_EDITS[:3])
    def test_cli_edit_exits_2_with_one_line(self, spec, message, tmp_path,
                                            capsys):
        from repro.cli import main
        document = tmp_path / "doc.cmifpkg"
        document.write_text(package.pack(make_media_document(5, events=8)),
                            encoding="utf-8")
        script = tmp_path / "edits.json"
        script.write_text(json.dumps([spec]), encoding="utf-8")
        assert main(["edit", str(document), "--script", str(script)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert re.match(f"error: edit {message}", err)

    def test_negative_retime_is_refused_as_a_cold_compile_would(self):
        from repro.core.errors import ValueError_
        from repro.pipeline.patch import LiveEditor
        document = make_media_document(5, events=8)
        revision = document.revision
        with pytest.raises(ValueError_, match="negative"):
            LiveEditor(document).apply({"op": "retime", "path": LEAF,
                                        "duration_ms": -5})
        assert document.revision == revision

    def test_serve_checks_the_document_index(self):
        from repro.serving import SessionEngine
        from repro.transport.environments import WORKSTATION
        engine = SessionEngine(seed=1)
        with pytest.raises(FormatError, match="'document'"):
            engine.serve([make_media_document(5, events=8)], [WORKSTATION],
                         edit_script=[{"op": "retime", "path": LEAF,
                                       "duration_ms": 10, "document": 3}])
