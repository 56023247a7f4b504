"""Concrete syntaxes for CMIF documents: s-expression text and JSON.

The text form is the transportable, human-readable interchange format
the paper calls for; :func:`parse_document` / :func:`write_document`
round-trip losslessly.  The JSON form mirrors it for JSON-speaking
tooling.
"""

from repro._lazy import export_table

__all__ = export_table(__name__, {
    ".json_io": ("arc_from_obj", "arc_to_obj", "document_from_json",
                 "document_to_json", "node_from_obj", "node_to_obj",
                 "value_from_obj", "value_to_obj"),
    ".parser": ("parse_arc", "parse_document", "parse_node", "parse_time",
                "parse_value"),
    ".sexpr": ("Symbol", "dump", "head_symbol", "parse_all", "parse_one",
               "tokenize"),
    ".writer": ("arc_expression", "attributes_expression", "node_expression",
                "time_expression", "value_items", "write_document"),
})
