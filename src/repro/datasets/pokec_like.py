"""A Pokec-like synthetic social graph.

The paper's social-network experiments run on Pokec (1.63M nodes of 269 types,
30.6M edges of 11 types such as ``follow`` and ``like``).  The real dump is
unavailable offline and far beyond pure-Python scale, so this module generates
a scaled-down graph with the *same vocabulary and the same behavioural
structure* the paper's patterns and rules query:

* ``person`` nodes that ``follow`` each other (small-world + preferential
  attachment), ``live_in`` cities, join ``music_club``s, have ``hobby``s and
  are ``is_friend`` with each other;
* ``album`` and ``product`` nodes that persons ``like``, ``recom``(mend),
  ``buy``, ``post`` about or give a ``bad_rating``;
* **planted cohorts** that guarantee the paper's example patterns are
  non-trivially satisfiable: a cohort of music-club members at least 80% of
  whose followees like a featured album (pattern ``Q1`` / rule ``R1``); a
  cohort whose followees *all* recommend a featured product (``Q2``); a cohort
  that additionally follows a detractor who gave the product a bad rating
  (``Q3``); plus hobby/friendship cohorts for the mined rules ``R5``/``R6``.

The cohort sizes scale with ``num_users`` so benchmarks at different scales
keep the same answer-density shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.graph.digraph import PropertyGraph
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["PokecConfig", "pokec_like_graph"]


@dataclass(frozen=True)
class PokecConfig:
    """Size and density knobs of the Pokec-like generator."""

    num_users: int = 300
    num_albums: int = 12
    num_products: int = 8
    num_clubs: int = 6
    num_cities: int = 8
    num_hobbies: int = 10
    avg_followees: int = 6
    like_probability: float = 0.25
    buy_probability: float = 0.15
    planted_fraction: float = 0.1
    seed: SeedLike = 7


def _add_entities(graph: PropertyGraph, prefix: str, label: str, count: int) -> List[str]:
    nodes = [f"{prefix}{i}" for i in range(count)]
    for node in nodes:
        graph.add_node(node, label)
    return nodes


def pokec_like_graph(config: PokecConfig = PokecConfig()) -> PropertyGraph:
    """Generate a Pokec-like social graph according to *config*."""
    rng = ensure_rng(config.seed)
    graph = PropertyGraph("pokec-like")

    users = _add_entities(graph, "u", "person", config.num_users)
    albums = _add_entities(graph, "album", "album", config.num_albums)
    products = _add_entities(graph, "prod", "product", config.num_products)
    clubs = _add_entities(graph, "club", "music_club", config.num_clubs)
    cities = _add_entities(graph, "city", "city", config.num_cities)
    hobbies = _add_entities(graph, "hobby", "hobby", config.num_hobbies)

    # The featured product plays the role of "Redmi 2A" in the paper's Q2/Q3:
    # it is a named constant, so it carries its own label.
    featured_product = "Redmi_2A"
    graph.add_node(featured_product, "Redmi_2A")
    products = [featured_product] + products
    featured_album = albums[0]

    # --- background social structure -------------------------------------
    for user in users:
        graph.add_edge(user, rng.choice(cities), "live_in")
        if rng.random() < 0.5:
            graph.add_edge(user, rng.choice(clubs), "in")
        if rng.random() < 0.6:
            graph.add_edge(user, rng.choice(hobbies), "hobby")
        followees = rng.sample(users, min(config.avg_followees, len(users)))
        for followee in followees:
            if followee != user:
                graph.add_edge(user, followee, "follow")
        for album in albums:
            # Background album likes are kept sparse so that the "80% of my
            # followees like an album" condition of Q1/R1 is rare outside the
            # planted cohort (matching the selectivity the paper relies on).
            if rng.random() < config.like_probability / 6:
                graph.add_edge(user, album, "like")
        for product in products:
            if rng.random() < config.like_probability / 3:
                graph.add_edge(user, product, "recom")
            if rng.random() < config.buy_probability / 2:
                graph.add_edge(user, product, "buy")
        if rng.random() < 0.2:
            graph.add_edge(user, rng.choice(products), "post")
        if rng.random() < 0.1:
            # A minority of users actively post about two competing products
            # (the "Mac vs PC" behaviour that rule R2 quantifies over).
            for product in rng.sample(products, min(2, len(products))):
                graph.add_edge(user, product, "post")
        friends = rng.sample(users, 2)
        for friend in friends:
            if friend != user:
                graph.add_edge(user, friend, "is_friend")

    planted = max(3, int(config.planted_fraction * config.num_users))

    # --- cohort for Q1 / R1: music-club members whose followees like the
    #     featured album (>= 80%) and who buy it ---------------------------
    q1_cohort = users[:planted]
    for user in q1_cohort:
        graph.add_edge(user, clubs[0], "in")
        followees = sorted(graph.successors(user, "follow"), key=str)
        if not followees:
            followees = [users[(users.index(user) + 1) % len(users)]]
            graph.add_edge(user, followees[0], "follow")
        keep = max(1, int(round(len(followees) * 0.9)))
        for followee in followees[:keep]:
            graph.add_edge(followee, featured_album, "like")
        graph.add_edge(user, featured_album, "like")
        graph.add_edge(user, featured_album, "buy")

    # --- cohort for Q2: every followee recommends the featured product ----
    q2_cohort = users[planted : 2 * planted]
    for user in q2_cohort:
        for followee in graph.successors(user, "follow"):
            graph.add_edge(followee, featured_product, "recom")
        graph.add_edge(user, featured_product, "buy")

    # --- cohort for Q3: like Q2 but additionally follow a detractor -------
    q3_cohort = users[2 * planted : 3 * planted]
    detractors = users[-max(2, planted // 2):]
    for detractor in detractors:
        graph.add_edge(detractor, featured_product, "bad_rating")
    for index, user in enumerate(q3_cohort):
        for followee in graph.successors(user, "follow"):
            graph.add_edge(followee, featured_product, "recom")
        graph.add_edge(user, detractors[index % len(detractors)], "follow")

    # --- cohorts for the mined rules R5/R6: shared hobbies and friendships -
    r5_cohort = users[3 * planted : 4 * planted]
    travel = hobbies[0]
    for user in r5_cohort:
        graph.add_edge(user, travel, "hobby")
        for friend in sorted(graph.successors(user, "is_friend"), key=str)[:2]:
            graph.add_edge(friend, travel, "hobby")

    return graph
