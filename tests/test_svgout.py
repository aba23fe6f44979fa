import xml.etree.ElementTree as ET

from capunfold.generate import generate_budget_cap
from capunfold.pipeline import cut_and_unfold
from capunfold.svgout import render_forest_svg, render_net_svg

from fixtures import adjacency_reference, pentagonal_pyramid


def _result(n=50, seed=3):
    return cut_and_unfold(generate_budget_cap(n, seed=seed))


class TestNetSvg:
    def test_parses_as_xml(self):
        res = _result()
        svg = render_net_svg(res.cap, res.net, res.forest)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "viewBox" in root.attrib

    def test_stroke_classes_present(self):
        res = _result()
        svg = render_net_svg(res.cap, res.net, res.forest)
        for cls in ("cut", "fold", "rim", "face"):
            assert f'class="{cls}"' in svg

    def test_cut_edge_images_counted(self):
        # every cut edge is drawn twice (once per bank), every uncut
        # interior side once, every rim edge once
        res = _result()
        svg = render_net_svg(res.cap, res.net, res.forest)
        n_cut = svg.count('class="cut"')
        n_fold = svg.count('class="fold"')
        n_rim = svg.count('class="rim"')
        boundary = adjacency_reference(res.cap.triangles).boundary_edges
        assert n_cut == 2 * len(res.net.cut_edges)
        assert n_rim == len(boundary)
        interior = res.cap.n_edges - len(boundary)
        assert n_fold == interior - len(res.net.cut_edges)

    def test_quadrant_axes_drawn(self):
        res = _result()
        svg = render_net_svg(res.cap, res.net, res.forest)
        assert svg.count('class="quadrant-axis"') == 5
        assert svg.count('class="origin"') == 1

    def test_deterministic(self):
        res = _result()
        a = render_net_svg(res.cap, res.net, res.forest)
        b = render_net_svg(res.cap, res.net, res.forest)
        assert a == b


class TestForestSvg:
    def test_parses_and_counts_forest_edges(self):
        res = _result()
        svg = render_forest_svg(res.cap, res.forest, res.strips)
        ET.fromstring(svg)
        assert svg.count('class="forest-edge"') == len(res.forest.parent)

    def test_waterfall_paths_dashed(self):
        res = _result()
        svg = render_forest_svg(res.cap, res.forest, res.strips)
        n_paths = sum(len(v) for v in res.strips.paths.values())
        assert svg.count('class="waterfall"') == n_paths

    def test_pyramid_overlay(self):
        res = cut_and_unfold(pentagonal_pyramid())
        svg = render_forest_svg(res.cap, res.forest, res.strips)
        ET.fromstring(svg)
        assert svg.count('class="forest-edge"') == 1  # apex to rim
