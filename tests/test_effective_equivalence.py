"""Randomized equivalence: ``Node.effective`` vs a level-walk oracle.

``Node.effective`` reads attribute lists in place and expands styles
only at nodes that carry one.  The oracle below is the resolution it
replaced: build every level's merged dict with
:meth:`Node.level_attributes` and walk the ancestor chain.  Every node
of every generated tree must resolve every name to the same value (or
raise the same error), with an explicit dictionary and with
``styles=None`` (root lookup).
"""

from __future__ import annotations

import random

import pytest

from repro.core.attributes import spec_for
from repro.core.errors import CmifError
from repro.core.nodes import ContainerNode, ExtNode, ImmNode, ParNode, SeqNode
from repro.core.styles import StyleDictionary
from repro.core.tree import iter_preorder
from repro.corpus.generate import make_media_document


def oracle_effective(node, name, default=None, styles=None):
    """The level_attributes walk (the retained reference)."""
    if styles is None:
        styles = node._style_dictionary()
    level = node.level_attributes(styles)
    if name in level:
        return level[name]
    spec = spec_for(name)
    if spec is None or not spec.inherited:
        return default
    for ancestor in node.ancestors():
        level = ancestor.level_attributes(styles)
        if name in level:
            return level[name]
    return default


#: Inherited standard (channel, file), non-inherited standard (title,
#: comment, medium) and free attributes (color, weight).
NAMES = ("channel", "file", "title", "comment", "medium", "color",
         "weight", "style", "name")
STYLE_NAMES = ("plain", "loud", "caption", "nested", "undefined")


def random_style_dictionary(rng: random.Random) -> dict:
    group = {}
    for style in STYLE_NAMES[:-1]:
        body = {}
        for name in rng.sample(NAMES[:7], rng.randrange(0, 4)):
            body[name] = random_value(rng, name)
        group[style] = body
    group["nested"]["style"] = (rng.choice(("plain", "loud")),)
    return group


def random_value(rng: random.Random, name: str) -> object:
    if name == "medium":
        return rng.choice(("text", "audio", "image"))
    if name == "weight":
        return rng.randrange(0, 5)
    return f"{name}-{rng.randrange(0, 4)}"


def decorate(rng: random.Random, node, with_undefined: bool) -> None:
    for name in rng.sample(NAMES[:7], rng.randrange(0, 3)):
        node.attributes.set(name, random_value(rng, name))
    if rng.random() < 0.4:
        pool = STYLE_NAMES if with_undefined else STYLE_NAMES[:-1]
        node.attributes.set("style", tuple(
            rng.sample(pool, rng.randrange(1, 3))))


def random_tree(rng: random.Random, *, styled: bool,
                with_undefined: bool = False) -> ContainerNode:
    root = SeqNode("root")
    if styled:
        root.attributes.set("style-dictionary",
                            random_style_dictionary(rng))
    frontier = [root]
    for index in range(rng.randrange(5, 25)):
        parent = rng.choice(frontier)
        roll = rng.random()
        if roll < 0.3:
            child = rng.choice((SeqNode, ParNode))(f"c{index}")
            frontier.append(child)
        elif roll < 0.65:
            child = ExtNode(f"e{index}")
        else:
            child = ImmNode(f"i{index}", data="x")
        decorate(rng, child, with_undefined)
        parent.add(child)
    decorate(rng, root, with_undefined)
    return root


def resolve(function, node, name, styles) -> tuple:
    try:
        return ("value", function(node, name, "DEFAULT", styles))
    except CmifError as error:
        return ("error", type(error).__name__, str(error))


def assert_equivalent(root: ContainerNode) -> None:
    group = root.attributes.get("style-dictionary")
    choices = [None]
    if group is not None:
        choices.append(StyleDictionary.from_group(group))
    for node in iter_preorder(root):
        for name in NAMES:
            for styles in choices:
                assert (resolve(type(node).effective, node, name, styles)
                        == resolve(oracle_effective, node, name, styles)), \
                    (node, name, styles)


class TestEffectiveEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_styled_trees(self, seed):
        assert_equivalent(random_tree(random.Random(seed), styled=True))

    @pytest.mark.parametrize("seed", range(6))
    def test_unstyled_trees(self, seed):
        assert_equivalent(random_tree(random.Random(100 + seed),
                                      styled=False))

    @pytest.mark.parametrize("seed", range(6))
    def test_undefined_style_references_raise_alike(self, seed):
        assert_equivalent(random_tree(random.Random(200 + seed),
                                      styled=True, with_undefined=True))

    def test_generated_documents(self):
        for seed in (1, 2):
            document = make_media_document(seed, events=40, rich=True)
            assert_equivalent(document.root)

    def test_own_value_beats_style_and_ancestor(self):
        root = SeqNode("root", attributes={"style-dictionary": {
            "s": {"channel": "from-style", "color": "red"}}})
        root.attributes.set("channel", "from-root")
        leaf = ExtNode("leaf", attributes={"style": ("s",)})
        root.add(leaf)
        assert leaf.effective("channel") == "from-style"
        leaf.attributes.set("channel", "own")
        assert leaf.effective("channel") == "own"
        # Free attributes resolve on the node's own level only.
        assert leaf.effective("color") == "red"
        other = ExtNode("other")
        root.add(other)
        assert other.effective("color") is None
        assert other.effective("channel") == "from-root"
