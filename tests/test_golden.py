"""Golden report bytes: the sha256 of every suite's rendered report.

The digests were taken before the flag kernel and the suite table were
rewritten, so any change in a verdict, a witness, a count or the order
of a report's fields shows here as a changed digest.  The configs are
those of tests/test_suites_cli.py and criterion 10, plus both modes of
prop-flag-map and collineation, the default sample counts of the
sampled suites, ktheory over GF(4), GF(9) and GF(49), which pins
the tame symbols of residue fields larger than the prime field, and the
three degree-2 round trips of the benchmark's `roundtrip` workload,
which pin the dependence classes that reconstruction builds.  The three
q=3, degree-2 round trips of criterion 09 pin the same over GF(3); they
share one arena build.  The valuation axioms over GF(4) and GF(7) pin
the values and residues of places over a field that is not prime and
over a larger prime field, and weil-inertia over GF(7) pins the unit
lattices of 140 generators.
"""

import hashlib

import pytest

from flagval.suites import SuiteConfig, render_report, run_suite

GOLDEN = [
    ({'suite': 'flag-classify'}, "e0bbf0892560e90db30a3c1e016c64a5e586f4d82382853897cd54b7dc9cc355"),
    ({'suite': 'flag-classify', 'q': 2}, "4edf8a363f10c9e26aa79416057646fcd29ab8895b2474f487cc05fe090d5787"),
    ({'suite': 'flag-classify', 'q': 3}, "79a047140dfcf8e0d1549fa2f149eb39bdd11a835a6786068d5080cc9e8696b0"),
    ({'suite': 'prop-flag-map', 'mode': 'exhaustive'}, "a6e0ecbf3b4416d8b9bb3fea03ef6798103499b80715cc94e4ae84d7ec52e42c"),
    ({'suite': 'prop-flag-map', 'q': 3, 'mode': 'sampled', 'seed': 7, 'samples': 2000}, "758bed684d7238b3ff0ef788a083e8c2a1dc1cd4c35178857f74637cbcf2461b"),
    ({'suite': 'prop-flag-map', 'q': 3, 'mode': 'sampled', 'seed': 101, 'samples': 10000}, "5bb5f2900a65c4e5b16070430efb188cc5eec2da505b69108f87c8204a82887f"),
    ({'suite': 'prop-flag-map', 'q': 2, 'mode': 'sampled', 'seed': 7, 'samples': 2000}, "f6c539e8cf3e77b2c608a0c70e2a07e3508293a27ed368cd2f5549d580f08fd7"),
    ({'suite': 'prop-flag-map', 'mode': 'sampled', 'seed': 3}, "fd3068e6f2d7d71a746873c4d3446f0cec6041e04b1a366226ec7a9db0165b8d"),
    ({'suite': 'lemma-p2'}, "881a433a1bf176b579051b8b5fb608d05d17e930b6f483582b8da91bc163af22"),
    ({'suite': 'collineation', 'p': 2}, "84cecc76b4fd7ff422f4efb056f92dfb64fbcaf900d5699c91c7cf5757447426"),
    ({'suite': 'collineation', 'p': 3}, "220e6c54e161479e15f93b24ecbb30f6909157957808bf0eeb357939ffc09ca3"),
    ({'suite': 'collineation', 'p': 2, 'mode': 'sampled', 'seed': 5, 'samples': 2000}, "5e0546e34959c1850be70f29b50a1654dc0f2fd2b7721fb29f3b1244a8ac13dc"),
    ({'suite': 'collineation', 'mode': 'sampled', 'seed': 3}, "c8a9acb4f08fb3f766f5e86cda026850e37edb7462afc5b2ca0a8743968b558c"),
    ({'suite': 'valuation-axioms', 'q': 3, 'seed': 5, 'samples': 300}, "172647148ddf91517552daefb1bd79b2ac7d348df92790732a5cfacb3499e84a"),
    ({'suite': 'valuation-axioms', 'q': 5, 'seed': 5, 'samples': 300}, "6e8fd11e7079d5aca3dc357dde2cf4015df1b90ca170293e3e7051bcf4307d72"),
    ({'suite': 'valuation-axioms', 'q': 3, 'seed': 101, 'samples': 1000}, "358cbc65fd69e7aa55d4d13c12dc5db7590662289a022c4c5d12731914e38d4b"),
    ({'suite': 'valuation-axioms', 'q': 4, 'seed': 5, 'samples': 300}, "38577a662594b34d0876b3402e493792dec27dfba754d40eb80607888221addd"),
    ({'suite': 'valuation-axioms', 'q': 7, 'seed': 5, 'samples': 300}, "871cafd4cc2ebb9b75ff456527471b114b39c1eddeff8c0523ef8d5df25e3374"),
    ({'suite': 'weil-inertia'}, "698ea0f429e3fc78d05a2bced4252382e2fdd5c917983fc1988e35d9f60bbbb6"),
    ({'suite': 'weil-inertia', 'arena_deg': 2}, "d2630e22d068cc37dfdf6fd506ed3f612a12ba18628d99d96f222724c947d153"),
    ({'suite': 'weil-inertia', 'q': 7}, "2984aea20b107914b06a3025db9139e66e0ec32ff115d40cf4a22a27e12a60f0"),
    ({'suite': 'c-pairs'}, "1cc3e6ed179df8ee377115e8d1c8373b9d5e101e7c9441df0910ceb998b8de0b"),
    ({'suite': 'ktheory', 'seed': 11, 'samples': 60}, "852017a49e3383d43bf48b267ffcb68f78279014833777a59ea108b9577b9dbc"),
    ({'suite': 'ktheory', 'seed': 11, 'check': 'worked'}, "94a71c85cdf86e4b5d58ffd0e676025e1c14cc725a6a06d3ac3ef3e528d93867"),
    ({'suite': 'ktheory', 'seed': 101, 'samples': 100}, "ad76565026a035bef9db4b7086059ecc5f8704aa4dd92b580a28ae7d0d743766"),
    ({'suite': 'ktheory', 'q': 4, 'seed': 11, 'samples': 60}, "275f75e13f5155548a2ed496190fb8e4f246a843321fdb980560a5d23eef705f"),
    ({'suite': 'ktheory', 'q': 9, 'seed': 11, 'samples': 60}, "6959adad1b2ab25ea50ce4703cfa773acc83b77e72619cec3a4932d3c0dd7222"),
    ({'suite': 'ktheory', 'q': 49, 'seed': 11, 'samples': 40}, "a3ce731e722b98f4b8bb4ff167d3ad68f9ecaf0aa17eb095c5a1e2e2bf262880"),
    ({'suite': 'ktheory', 'q': 49, 'seed': 11, 'check': 'worked'}, "103ab4426fed5cce1334b961442042bc0ca58edc382d4aeec30344d6c2f691ce"),
    ({'suite': 'reconstruct-roundtrip', 'place': 'curve:x', 'arena_deg': 1, 'samples': 10}, "6d2812cb36f862491fc12164d32db91174e96065b9d39ba70b5b885bb664bcb2"),
    ({'suite': 'reconstruct-roundtrip', 'q': 2, 'arena_deg': 2, 'place': 'curve:x^2+y', 'samples': 50}, "ac65d56d2fb5e756ac3eeb8538600207208b8ca998a05b044306aa0cb23c7157"),
    ({'suite': 'reconstruct-roundtrip', 'q': 2, 'arena_deg': 2, 'place': 'curve:y^2+x', 'samples': 50}, "e2439a5a00c0b4b007a18d8353d771cd70a4fbf778984b74295b47c177a6df8c"),
    ({'suite': 'reconstruct-roundtrip', 'q': 2, 'arena_deg': 2, 'place': 'curve:x^2+x+y', 'samples': 50}, "82d4ed6ef9ead5771be4eddcc9331a31af7fcf39e6f468fabc8cbab610b0f752"),
    ({'suite': 'reconstruct-roundtrip', 'place': 'curve:x'}, "157e7f99b17711911cddad54ad62983e843ad69679a20490bc470da5499c80e5"),
    ({'suite': 'reconstruct-roundtrip', 'place': 'curve:y'}, "9077e3085566c384db4bc13ba2618b5d943f78a28938ec8ea61222dc9751e90d"),
    ({'suite': 'reconstruct-roundtrip', 'place': 'curve:x^2+2*y'}, "dc03035ed711a62fd31043b533c32f0e833dd4206ea97b7254f4760aab8c5b19"),
]


@pytest.mark.parametrize(
    "cfg,digest",
    GOLDEN,
    ids=["-".join(f"{k}={v}" for k, v in c.items()) for c, _ in GOLDEN],
)
def test_report_digest(cfg, digest):
    text = render_report(run_suite(SuiteConfig(**cfg)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_reports_do_not_depend_on_factor_cache_state():
    """Report bytes are the same from a cold factor cache and from one that
    a GF(49) run has filled and churned: no cache content reaches a report."""
    from flagval import poly

    cached = poly._factor_univariate_cached
    cfgs = [
        SuiteConfig(suite="valuation-axioms", q=5, seed=15, samples=1000),
        SuiteConfig(suite="ktheory", q=3, seed=15, samples=500),
    ]
    cold = []
    for cfg in cfgs:
        cached.cache_clear()
        cold.append(render_report(run_suite(cfg)))
    cached.cache_clear()
    run_suite(SuiteConfig(suite="ktheory", q=49, seed=16, samples=400))
    info = cached.cache_info()
    assert info.currsize == info.maxsize and info.misses > 2 * info.maxsize  # filled and churned
    assert [render_report(run_suite(cfg)) for cfg in cfgs] == cold
