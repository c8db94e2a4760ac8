"""Dataset profiles: synthetic stand-ins for the paper's four benchmarks.

Each profile parameterizes :func:`repro.kbgen.generator.generate_kb_pair`
so that the generated KB pair exhibits the *properties* that drive the
paper's experiments for the corresponding real dataset (value-similarity
level, name-sharing rate, schema variety, token-count imbalance,
neighborhood alignment), at laptop scale. Absolute sizes are 2-3 orders
of magnitude below the paper's (documented in DESIGN.md section 4 and
diffed against the paper in EXPERIMENTS.md).

Token classes (mirroring how real KB text behaves):

* **specific** tokens are unique to one real-world entity (ids, street
  numbers, titles); both KBs sample them from the entity's pool, so
  matches share rare tokens (EF~=1, valueSim weight ~=1 each) while
  non-matches never do. Their inclusion rates set the dataset's value
  similarity (x-axis of the paper's Fig. 2).
* **names** are Zipf first-name tokens plus a unique surname; surnames
  *leak* into neighbors' descriptions (knob ``p_leak``), raising their
  EF the way real KBs mention related entities, which weakens the
  surname's valueSim weight on verbose KBs.
* **mid** tokens come from a shared mid-frequency vocabulary (genres,
  cities); they survive Block Purging, keep blocking recall near 100%,
  and create the candidate clutter that makes matching non-trivial.
  Vocabulary sizes are tuned so even tail tokens have EF >= ~5 in at
  least one KB — chance rare-token collisions between non-matches would
  otherwise fabricate valueSim evidence real KBs do not exhibit.
* **noise** tokens follow a Zipf head (stop-words); their blocks are
  exactly what Block Purging must drop.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Profile:
    """Knobs for one synthetic KB pair (entity counts at bench scale)."""

    name: str
    # --- sizes -----------------------------------------------------------
    n_matches: int
    n_only1: int
    n_only2: int
    # --- value (token) evidence -----------------------------------------
    n_spec: int          # entity-specific tokens in the entity's pool
    p_spec1: float       # prob. each specific token is included in KB1
    p_spec2: float
    p_hard: float = 0.0  # fraction of entities with weak value overlap
    #   ("hard" matches: the low-valueSim population of the paper's
    #   Fig. 2 — resolvable only via names/neighbors). Their specific
    #   tokens are included at hard_factor * p_spec.
    hard_factor: float = 0.25
    hard_name_factor: float = 1.0  # multiplier on p_name_shared for hard
    #   entities: messy descriptions correlate with messy names, so the
    #   hard population is partially invisible to value-only matchers
    #   while MinoanER still reaches it through neighbors (R3).
    n_mid1: int = 4      # mid-frequency tokens per entity in KB1
    n_mid2: int = 4
    mid_vocab: int = 500
    n_topic: int = 3     # universe-level "topic" tokens per entity (same
    #   mid vocabulary; a restaurant sits in the same city in both KBs).
    #   They guarantee near-total blocking recall — real matches always
    #   share *some* token — while their EF keeps their valueSim weight
    #   too small to matter for matching.
    p_topic: float = 0.85
    noise1: int = 4      # Zipf stop-word tokens per entity
    noise2: int = 4
    noise_vocab: int = 200
    zipf_a: float = 1.2
    # --- name evidence ---------------------------------------------------
    name_len: int = 2
    name_vocab: int = 100  # Zipf "first name" token vocabulary
    p_name_shared: float = 0.8  # prob. a match has the identical name in KB2
    decoy2: bool = False  # KB2 unique-id attribute outranking the name attr
    unique_surname: bool = True  # False: ALL name tokens come from the
    #   common Zipf vocabulary, so names are distinctive only as whole
    #   strings (YAGO-IMDb: "john smith" is near-unique as a string, its
    #   tokens are worthless to token-level matchers — exactly why the
    #   paper's whole-value name blocking h_N matters there). Whole-name
    #   collisions then arise naturally, giving R1 its sub-100 precision.
    p_leak1: float = 0.25  # prob. an edge u->v leaks v's surname into u
    p_leak2: float = 0.25
    name_format2: str = "plain"  # "caps": KB2 renders name values in a
    #   different raw format (upper case). Token/normalized-name evidence
    #   is unaffected (MinoanER lowercases), but exact-raw-value matchers
    #   (PARIS) lose the evidence — the structural-heterogeneity failure
    #   the paper reports for PARIS on BBCmusic-DBpedia.
    # --- schema variety --------------------------------------------------
    n_attrs1: int = 5
    n_attrs2: int = 5
    shared_attr_names: bool = False
    n_types1: int = 3
    n_types2: int = 3
    n_vocab1: int = 2
    n_vocab2: int = 2
    tokens_per_value: int = 3
    # --- neighbor evidence ----------------------------------------------
    degree: int = 2
    p_edge1: float = 0.9
    p_edge2: float = 0.9
    n_graph_rels1: int = 2
    n_graph_rels2: int = 2
    hub_rel: bool = True
    n_hubs: int = 5

    @property
    def n1(self) -> int:
        return self.n_matches + self.n_only1

    @property
    def n2(self) -> int:
        return self.n_matches + self.n_only2


def scaled(p: Profile, sf: float) -> Profile:
    """Scale entity counts (and vocabularies, to keep EFs stable) by ``sf``."""
    def s(n: int, lo: int = 5) -> int:
        return max(lo, int(round(n * sf)))

    return replace(
        p,
        name=f"{p.name}@sf{sf:g}",
        n_matches=s(p.n_matches, lo=20),
        n_only1=s(p.n_only1, lo=0) if p.n_only1 else 0,
        n_only2=s(p.n_only2, lo=0) if p.n_only2 else 0,
        mid_vocab=s(p.mid_vocab, lo=30),
        noise_vocab=s(p.noise_vocab, lo=15),
        name_vocab=s(p.name_vocab, lo=8),
    )


# ---------------------------------------------------------------------------
# The four benchmark stand-ins (bench scale).
#
# restaurant  : tiny, low Variety, strongly similar values AND neighbors;
#               everything (incl. BSL) should solve it (paper: ~100 F1).
# rexa_dblp   : strongly similar values, very imbalanced KB sizes; value
#               evidence nearly sufficient (paper: MinoanER 96 F1, BSL 90).
# bbc_dbpedia : high Variety - 4x token-count imbalance, ~100 KB2
#               attributes, decoy top attribute (k=1 fails), weak value
#               overlap; names + neighbors must carry matching
#               (paper: MinoanER 90 F1, BSL 51, PARIS 0.5).
# yago_imdb   : low value similarity, strong aligned neighborhoods,
#               balanced sizes; neighbor evidence dominates
#               (paper: MinoanER 91 F1, BSL 7, PARIS 92).
# ---------------------------------------------------------------------------

RESTAURANT = Profile(
    name="restaurant",
    n_matches=89, n_only1=250, n_only2=2167,
    n_spec=6, p_spec1=0.95, p_spec2=0.95,
    n_mid1=4, n_mid2=4, mid_vocab=250,
    noise1=4, noise2=4, noise_vocab=80, zipf_a=1.25,
    name_len=2, name_vocab=25, p_name_shared=0.72, decoy2=False,
    p_leak1=0.2, p_leak2=0.2,
    n_attrs1=5, n_attrs2=5, shared_attr_names=True,
    n_types1=3, n_types2=3, n_vocab1=2, n_vocab2=2,
    degree=2, p_edge1=0.95, p_edge2=0.95,
    n_graph_rels1=1, n_graph_rels2=1, hub_rel=True, n_hubs=12,
)

REXA_DBLP = Profile(
    name="rexa_dblp",
    n_matches=131, n_only1=1720, n_only2=12900,
    n_spec=6, p_spec1=0.92, p_spec2=0.88,
    p_hard=0.25, hard_factor=0.25,
    n_mid1=5, n_mid2=8, mid_vocab=1500,
    noise1=5, noise2=8, noise_vocab=600, zipf_a=1.15,
    name_len=3, name_vocab=150, p_name_shared=0.88, decoy2=False,
    p_leak1=0.25, p_leak2=0.25,
    n_attrs1=8, n_attrs2=10, shared_attr_names=False,
    n_types1=4, n_types2=11, n_vocab1=4, n_vocab2=4,
    degree=3, p_edge1=0.9, p_edge2=0.9,
    n_graph_rels1=2, n_graph_rels2=3, hub_rel=True, n_hubs=40,
)

BBC_DBPEDIA = Profile(
    name="bbc_dbpedia",
    n_matches=390, n_only1=610, n_only2=4010,
    n_spec=5, p_spec1=0.7, p_spec2=0.35,
    p_hard=0.45, hard_factor=0.2,
    n_mid1=5, n_mid2=18, mid_vocab=1000,
    noise1=5, noise2=30, noise_vocab=330, zipf_a=1.1,
    name_len=2, name_vocab=80, p_name_shared=0.7, decoy2=True,
    p_leak1=0.3, p_leak2=0.5, name_format2="caps",
    n_attrs1=10, n_attrs2=100, shared_attr_names=False,
    n_types1=4, n_types2=200, n_vocab1=4, n_vocab2=6,
    degree=4, p_edge1=0.9, p_edge2=0.85,
    n_graph_rels1=2, n_graph_rels2=8, hub_rel=True, n_hubs=90,
)

YAGO_IMDB = Profile(
    name="yago_imdb",
    n_matches=1200, n_only1=2800, n_only2=2900,
    n_spec=4, p_spec1=0.75, p_spec2=0.6,
    p_hard=0.4, hard_factor=0.2,
    n_mid1=5, n_mid2=4, mid_vocab=1100,
    noise1=6, noise2=5, noise_vocab=400, zipf_a=1.05,
    name_len=3, name_vocab=400, p_name_shared=0.78, decoy2=False,
    unique_surname=False,
    p_leak1=0.3, p_leak2=0.3,
    n_attrs1=10, n_attrs2=8, shared_attr_names=False,
    n_types1=300, n_types2=15, n_vocab1=3, n_vocab2=1,
    degree=4, p_edge1=0.92, p_edge2=0.92,
    n_graph_rels1=3, n_graph_rels2=3, hub_rel=True, n_hubs=150,
)

PROFILES: dict[str, Profile] = {
    p.name: p for p in (RESTAURANT, REXA_DBLP, BBC_DBPEDIA, YAGO_IMDB)
}

# A tiny profile for fast unit tests that still exercises every code path.
MICRO = Profile(
    name="micro",
    n_matches=40, n_only1=25, n_only2=60,
    n_spec=5, p_spec1=0.9, p_spec2=0.8,
    n_mid1=3, n_mid2=4, mid_vocab=30,
    noise1=3, noise2=4, noise_vocab=15, zipf_a=1.2,
    name_len=2, name_vocab=10, p_name_shared=0.8, decoy2=False,
    p_leak1=0.25, p_leak2=0.25,
    n_attrs1=4, n_attrs2=5, shared_attr_names=False,
    n_types1=3, n_types2=4, n_vocab1=2, n_vocab2=2,
    degree=2, p_edge1=0.9, p_edge2=0.9,
    n_graph_rels1=2, n_graph_rels2=2, hub_rel=True, n_hubs=6,
)


def test_scale(p: Profile) -> Profile:
    """The profile used by tests: ~15% of bench scale for the big ones."""
    if p.n1 + p.n2 > 2500:
        return scaled(p, 0.15)
    return p


def expected_shared_specific(p: Profile) -> float:
    """Expected count of specific tokens a match shares across the KBs.

    Each shared specific token contributes ~1.0 to valueSim (EF ~= 1 on
    both sides), so this is also the expected match beta from specific
    evidence — the main lever for where a profile sits on Fig. 2's
    value-similarity axis. Hard entities share at a quadratically damped
    rate (hard_factor applies in each KB independently).
    """
    base = p.n_spec * p.p_spec1 * p.p_spec2
    return (1 - p.p_hard) * base + p.p_hard * base * p.hard_factor**2
