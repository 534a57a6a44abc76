"""The paper's cross-version mapping tables, written out by hand.

``repro.apps.poisson.version_maps`` derives its directives from the two
versions' static resource spaces through ``core.automap``.  This module
is what it is held to: the renames of Figure 3 and Section 4.3 as plain
tables plus the rules that compose them —

* D runs C's code, so D counts as C for code renames;
* a pair the table lists one way round is inverted for the other;
* the message-tag family (type 1 for A/B, type 3 for C/D) is renamed
  when it differs and the code table does not already carry it;
* with both apps given, machine nodes pair positionally and extra
  destination nodes (the 4 -> 8 node case) stay unmapped.

The order is the one Figure 3 prints: code, then tag family, then
machine.
"""

from repro.core.directives import MapDirective

CODE_MAPS = {
    ("A", "B"): [
        ("/Code/oned.f", "/Code/onednb.f"),
        ("/Code/sweep.f", "/Code/nbsweep.f"),
        ("/Code/sweep.f/sweep1d", "/Code/nbsweep.f/nbsweep"),
        ("/Code/exchng1.f", "/Code/nbexchng.f"),
        ("/Code/exchng1.f/exchng1", "/Code/nbexchng.f/nbexchng1"),
    ],
    ("A", "C"): [
        ("/Code/oned.f", "/Code/twod.f"),
        ("/Code/oned.f/setup1d", "/Code/twod.f/setupgrid"),
        ("/Code/sweep.f", "/Code/sweep2d.f"),
        ("/Code/sweep.f/sweep1d", "/Code/sweep2d.f/sweep2d"),
        ("/Code/exchng1.f", "/Code/exchng2.f"),
        ("/Code/exchng1.f/exchng1", "/Code/exchng2.f/exchng2"),
        ("/Code/diff.f", "/Code/diff2d.f"),
        ("/Code/diff.f/diff1d", "/Code/diff2d.f/diff2d"),
        ("/SyncObject/Message/1", "/SyncObject/Message/3"),
    ],
    ("B", "C"): [
        ("/Code/onednb.f", "/Code/twod.f"),
        ("/Code/onednb.f/setup1d", "/Code/twod.f/setupgrid"),
        ("/Code/nbsweep.f", "/Code/sweep2d.f"),
        ("/Code/nbsweep.f/nbsweep", "/Code/sweep2d.f/sweep2d"),
        ("/Code/nbexchng.f", "/Code/exchng2.f"),
        ("/Code/nbexchng.f/nbexchng1", "/Code/exchng2.f/exchng2"),
        ("/Code/diff.f", "/Code/diff2d.f"),
        ("/Code/diff.f/diff1d", "/Code/diff2d.f/diff2d"),
        ("/SyncObject/Message/1", "/SyncObject/Message/3"),
    ],
}

TAG_FAMILY = {"A": "1", "B": "1", "C": "3", "D": "3"}


def code_maps(src, dst):
    s = "C" if src == "D" else src
    d = "C" if dst == "D" else dst
    if s == d:
        return []
    if (s, d) in CODE_MAPS:
        return list(CODE_MAPS[(s, d)])
    return [(b, a) for a, b in CODE_MAPS[(d, s)]]


def reference_version_maps(src, dst, src_app=None, dst_app=None):
    """The hand-composed directive list for *src* -> *dst*."""
    maps = [MapDirective(a, b) for a, b in code_maps(src, dst)]
    fam_src, fam_dst = TAG_FAMILY[src], TAG_FAMILY[dst]
    tag_old = f"/SyncObject/Message/{fam_src}"
    if fam_src != fam_dst and not any(m.old == tag_old for m in maps):
        maps.append(MapDirective(tag_old, f"/SyncObject/Message/{fam_dst}"))
    if src_app is not None and dst_app is not None:
        maps.extend(
            MapDirective(f"/Machine/{a}", f"/Machine/{b}")
            for a, b in zip(src_app.node_names, dst_app.node_names) if a != b
        )
    return maps
