"""Dataset parsing, validation, fixtures, and generators."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deephalo import data as dat
from deephalo.halo import read_halo_csv


class TestFeaturelessCsv:
    def test_direct_parse(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("set,choice\n0;2;3,2\n")
        ds = dat.load_featureless_csv(p)
        assert ds.observations[0].choice_set.items == (0, 2, 3)
        assert ds.observations[0].chosen == 2
        assert ds.universe == 4

    def test_singleton_set_is_valid(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("set,choice\n1,1\n")
        ds = dat.load_featureless_csv(p)
        assert ds.observations[0].choice_set.items == (1,)

    def test_duplicate_ids_rejected_with_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("set,choice\n0;1,0\n0;0;1,0\n")
        with pytest.raises(dat.DataFormatError, match="line 3"):
            dat.load_featureless_csv(p)

    def test_choice_outside_set_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("set,choice\n0;1,5\n")
        with pytest.raises(dat.DataFormatError, match="line 2"):
            dat.load_featureless_csv(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("set,choice\n0;1,0\nnot-a-set,0\n")
        with pytest.raises(dat.DataFormatError, match="line 3"):
            dat.load_featureless_csv(p)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("# c\nset,choice\n\n# mid\n0;1,5\n", 5),
            ('set,choice\n0;1,0\n"0;1,1\n# note\n\n0;1;2,2\n1;2,1\n', 3),
        ],
        ids=["after-comments-and-blanks", "stray-quote"],
    )
    def test_error_line_counts_every_line(self, tmp_path, text, line):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(dat.DataFormatError, match=f"line {line}:"):
            dat.load_featureless_csv(p)

    def test_observations_share_one_choice_set_per_offered_set(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("set,choice\n0;1,0\n2;0;1,2\n0;1,1\n0; 1,0\n2;0;1,0\n")
        ds = dat.load_featureless_csv(p)
        # Equal to building one ChoiceSet per row.
        rows = [((0, 1), 0), ((2, 0, 1), 2), ((0, 1), 1), ((0, 1), 0), ((2, 0, 1), 0)]
        per_row = dat.Dataset(
            [dat.Observation(dat.ChoiceSet(ids, 3), c) for ids, c in rows], universe=3
        )
        assert ds == per_row
        sets = [o.choice_set for o in ds.observations]
        assert sets[0] is sets[2] is sets[3] and sets[1] is sets[4]
        assert sets[0] is not sets[1]

    @pytest.mark.parametrize(
        "text, line",
        [
            ("set,choice\n0;1,0\n0;1,1\n0;1,2\n", 4),  # seen set, bad choice
            ("set,choice\n0;1,0\n0;1,x\n", 3),
            ("set,choice\n0;1,0\n1;1,1\n1;1,1\n", 3),
        ],
        ids=["choice-outside-seen-set", "bad-choice-in-seen-set", "duplicate-ids"],
    )
    def test_errors_in_repeated_sets_name_their_line(self, tmp_path, text, line):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(dat.DataFormatError, match=f"line {line}:"):
            dat.load_featureless_csv(p)

    def test_comments_ignored(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("# generated for a test\nset,choice\n# mid comment\n0;1,1\n")
        assert len(dat.load_featureless_csv(p)) == 1

    def test_padding_to_max_set_size(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("set,choice\n0;1;2,0\n3;4,4\n")
        ds = dat.load_featureless_csv(p)
        assert ds.width == 3
        small = ds.observations[1].choice_set
        assert small.slot_ids == (3, 4, dat.NULL_ID)
        np.testing.assert_array_equal(small.mask, [True, True, False])

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_round_trip(self, tmp_path_factory, data):
        universe = data.draw(st.integers(2, 6))
        n = data.draw(st.integers(1, 12))
        rng_seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(rng_seed)
        rows = []
        for _ in range(n):
            size = int(rng.integers(1, universe + 1))
            ids = tuple(int(i) for i in sorted(rng.choice(universe, size, replace=False)))
            rows.append((ids, int(rng.choice(ids))))
        width = max(len(ids) for ids, _ in rows)
        ds = dat.Dataset(
            [dat.Observation(dat.ChoiceSet(ids, width), c) for ids, c in rows],
            universe=universe,
        )
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        dat.write_featureless_csv(ds, path)
        loaded = dat.load_featureless_csv(path)
        assert [(o.choice_set.items, o.chosen) for o in loaded.observations] == rows


class TestFeaturedCsv:
    def test_assembly_with_shared_column(self, tmp_path):
        items = tmp_path / "items.csv"
        items.write_text("item_id,f1\n0,1.5\n1,-2.0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("set,choice,s1\n0;1,0,5\n")
        ds = dat.load_featured_csv(items, obs)
        assert ds.feature_dim == 2
        x = ds.observations[0].features
        np.testing.assert_array_equal(x, [[1.5, -2.0], [5.0, 5.0]])

    def test_no_shared_features(self, tmp_path):
        items = tmp_path / "items.csv"
        items.write_text("item_id,f1,f2\n0,1,2\n1,3,4\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("set,choice\n0;1,1\n")
        ds = dat.load_featured_csv(items, obs)
        np.testing.assert_array_equal(ds.observations[0].features, [[1, 3], [2, 4]])

    def test_unknown_item_rejected(self, tmp_path):
        items = tmp_path / "items.csv"
        items.write_text("item_id,f1\n0,1\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("set,choice\n0;9,0\n")
        with pytest.raises(dat.DataFormatError, match="item id 9"):
            dat.load_featured_csv(items, obs)

    def test_dummy_columns_zero_after_padding(self, tmp_path):
        items = tmp_path / "items.csv"
        items.write_text("item_id,f1\n0,1\n1,2\n2,3\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("set,choice\n0;1;2,0\n1,1\n")
        ds = dat.load_featured_csv(items, obs)
        padded = ds.observations[1].features
        np.testing.assert_array_equal(padded, [[2.0, 0.0, 0.0]])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_item_feature_names_its_line(self, tmp_path, value):
        items = tmp_path / "items.csv"
        items.write_text(f"item_id,f1,f2\n0,1,2\n# a comment\n1,{value},4\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("set,choice\n0;1,1\n")
        with pytest.raises(dat.DataFormatError, match="line 4: item 1 has a non-finite feature"):
            dat.load_featured_csv(items, obs)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_shared_feature_names_its_line(self, tmp_path, value):
        items = tmp_path / "items.csv"
        items.write_text("item_id,f1\n0,1.5\n1,-2.0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text(f"set,choice,s1,s2\n0;1,0,5,6\n0;1,1,{value},6\n")
        with pytest.raises(dat.DataFormatError, match="line 3: non-finite shared feature"):
            dat.load_featured_csv(items, obs)


class TestFeaturedOracle:
    """The loader's features == a per-slot assembly of the same files."""

    @pytest.mark.parametrize("d_shared", [0, 2], ids=["no-shared", "two-shared"])
    def test_features_equal_per_slot_assembly(self, tmp_path, d_shared):
        rng = np.random.default_rng(7)
        d_item = 3
        item_ids = [9, 2, 5, 14]  # sparse, written out of order
        vectors = {i: rng.normal(size=d_item) for i in item_ids}
        items = tmp_path / "items.csv"
        items.write_text("item_id,f1,f2,f3\n" + "".join(
            f"{i}," + ",".join(repr(float(v)) for v in vectors[i]) + "\n" for i in item_ids
        ))
        rows = []
        for n in range(12):
            size = 1 + n % 4
            ids = tuple(int(i) for i in rng.permutation(item_ids)[:size])
            rows.append((ids, ids[n % size], rng.normal(size=d_shared)))
        obs = tmp_path / "obs.csv"
        obs.write_text(",".join(["set", "choice"] + [f"s{i + 1}" for i in range(d_shared)])
                       + "\n" + "".join(
            ",".join([";".join(map(str, ids)), str(c)] + [repr(float(v)) for v in shared]) + "\n"
            for ids, c, shared in rows
        ))
        ds = dat.load_featured_csv(items, obs)
        width = max(len(ids) for ids, _, _ in rows)
        assert (ds.universe, ds.feature_dim, ds.width) == (15, d_item + d_shared, width)
        for o, (ids, chosen, shared) in zip(ds.observations, rows, strict=True):
            expected = np.zeros((d_item + d_shared, width))
            for slot, item in enumerate(ids):
                expected[:d_item, slot] = vectors[item]
                expected[d_item:, slot] = shared
            assert (o.choice_set.items, o.chosen) == (ids, chosen)
            assert o.features.shape == expected.shape and (o.features == expected).all()

    def test_view_equals_per_row_observations(self, tmp_path):
        """Negative shared values still leave the dummy columns +0.0, bit for bit."""
        rng = np.random.default_rng(3)
        vectors = {i: rng.normal(size=2) for i in range(5)}
        items = tmp_path / "items.csv"
        items.write_text("item_id,f1,f2\n" + "".join(
            f"{i},{float(v[0])!r},{float(v[1])!r}\n" for i, v in vectors.items()
        ))
        rows = []
        for n in range(9):
            ids = tuple(int(i) for i in rng.permutation(5)[: 2 + n % 3])
            rows.append((ids, ids[-1], -np.abs(rng.normal(size=2))))
        obs = tmp_path / "obs.csv"
        obs.write_text("set,choice,s1,s2\n" + "".join(
            f"{';'.join(map(str, ids))},{c},{float(s[0])!r},{float(s[1])!r}\n" for ids, c, s in rows
        ))
        ds = dat.load_featured_csv(items, obs)
        per_row = []
        for ids, chosen, shared in rows:
            x = np.zeros((4, 4))
            x[:2, : len(ids)] = np.array([vectors[i] for i in ids]).T
            x[2:, : len(ids)] = shared[:, None]
            per_row.append(dat.Observation(dat.ChoiceSet(ids, 4), chosen, x))
        assert ds == dat.Dataset(per_row, universe=5, feature_dim=4)
        for o, want in zip(ds.observations, per_row, strict=True):
            assert (o.choice_set, o.chosen) == (want.choice_set, want.chosen)
            assert o.features.tobytes() == want.features.tobytes()
            dummies = o.features[:, len(o.choice_set.items) :]
            assert (dummies == 0.0).all() and not np.signbit(dummies).any()
        assert dat.Dataset(ds.observations, universe=5, feature_dim=4) == ds

    @pytest.mark.parametrize("text, message", [
        ("set,choice,s1\n0;1,x,5\n", "line 2: cannot parse choice 'x'"),
        ("set,choice,s1\n0;1,0,y\n", "line 2: cannot parse shared features"),
        ("set,choice,s1\n0;1,0,5\n0;3,3,5\n", "line 3: item id 3 absent from items file"),
    ], ids=["choice", "shared", "unknown-item"])
    def test_observation_value_errors_name_their_line(self, tmp_path, text, message):
        items = tmp_path / "items.csv"
        items.write_text("item_id,f1\n0,1.5\n1,-2.0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text(text)
        with pytest.raises(dat.DataFormatError) as err:
            dat.load_featured_csv(items, obs)
        assert str(err.value) == message


def _featured_items(path, tmp_path):
    obs = tmp_path / "other.csv"
    obs.write_text("set,choice\n0,0\n")
    return dat.load_featured_csv(path, obs)


def _featured_observations(path, tmp_path):
    items = tmp_path / "other.csv"
    items.write_text("item_id,f1\n0,1.5\n1,-2.0\n")
    return dat.load_featured_csv(items, path)


# Each file kind: its header, the header the reader names, a misspelt header,
# a valid data row, and a load of the file (a valid partner file beside it).
FILE_KINDS = {
    "featureless": ("set,choice", "set,choice", "set,chosen", "0;1,0",
                    lambda path, _: dat.load_featureless_csv(path)),
    "items": ("item_id,f1", "item_id,...", "id,f1", "0,1.5", _featured_items),
    "observations": ("set,choice,s1", "set,choice,...", "set,chosen,s1", "0;1,0,5",
                     _featured_observations),
    "truth": ("set,probs", "set,probs", "set,prob", "0;1,0.5;0.5",
              lambda path, _: dat.load_probability_table(path)),
}


class TestTableReader:
    """Every data file kind gets the same header, field-count and row checks."""

    @pytest.mark.parametrize("kind", FILE_KINDS)
    @pytest.mark.parametrize("case", [
        "no-header-row", "comments-only", "wrong-header", "short-row", "long-row", "header-only",
    ])
    def test_malformed_file_names_its_line_or_file(self, tmp_path, kind, case):
        header, named, wrong, row, load = FILE_KINDS[kind]
        n = header.count(",") + 1
        path = tmp_path / "table.csv"
        text, message = {
            "no-header-row": (f"# a comment\n{row}\n",
                              f"line 2: expected header '{named}', got '{row}'"),
            "comments-only": ("# a comment\n\n", f"{path}: no header row, expected '{named}'"),
            "wrong-header": (f"{wrong}\n{row}\n",
                             f"line 1: expected header '{named}', got '{wrong}'"),
            "short-row": (f"{header}\n{row}\n{row.rsplit(',', 1)[0]}\n",
                          f"line 3: expected {n} fields, got {n - 1}"),
            "long-row": (f"{header}\n{row}\n{row},9\n",
                         f"line 3: expected {n} fields, got {n + 1}"),
            "header-only": (f"{header}\n# no rows\n", f"{path}: no data rows after the header"),
        }[case]
        path.write_text(text)
        with pytest.raises(dat.DataFormatError) as err:
            load(path, tmp_path)
        assert str(err.value) == message

    @pytest.mark.parametrize("kind", ["featureless", "truth"])
    def test_exact_header_rejects_an_extra_column(self, tmp_path, kind):
        header, named, _, row, load = FILE_KINDS[kind]
        path = tmp_path / "table.csv"
        path.write_text(f"{header},extra\n{row},1\n")
        with pytest.raises(dat.DataFormatError) as err:
            load(path, tmp_path)
        assert str(err.value) == f"line 1: expected header '{named}', got '{header},extra'"

    def test_header_names_may_carry_spaces(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(" set , choice \n0;1,1\n")
        assert dat.load_featureless_csv(path).observations[0].chosen == 1

    @pytest.mark.parametrize("kind, row, message", [
        ("featureless", '"0;1",0', "line 3: cannot parse set '\"0;1\"'"),
        ("featureless", '0;1,"0"', "line 3: cannot parse choice '\"0\"'"),
        ("truth", '"0;2",0.5;0.5', "line 3: cannot parse set '\"0;2\"'"),
        ("items", '1,"1.5"', "line 3: cannot parse item row"),
        ("observations", '0;1,0,"5"', "line 3: cannot parse shared features"),
    ])
    def test_quoted_field_fails_its_own_parse_at_its_line(self, tmp_path, kind, row, message):
        header, _, _, valid, load = FILE_KINDS[kind]
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n{valid}\n{row}\n")
        with pytest.raises(dat.DataFormatError) as err:
            load(path, tmp_path)
        assert str(err.value) == message


# Each file kind: a valid text with comments and blank lines, the same text
# with a fault on line 6, and a load whose results compare with ==.
LINE_ENDING_KINDS = {
    "featureless": ("# c\nset,choice\n\n0;1,0\n# d\n2;0;1,2\n",
                    "# c\nset,choice\n\n0;1,0\n# d\n2;0;1,5\n",
                    dat.load_featureless_csv),
    "truth": ("# c\nset,probs\n\n0;1,0.5;0.5\n# d\n0;1;2,0.25;0.25;0.5\n",
              "# c\nset,probs\n\n0;1,0.5;0.5\n# d\n0;1;2,0.25;0.25\n",
              lambda path: [(ids, probs.tolist())
                            for ids, probs in dat.load_probability_table(path).items()]),
}


class TestLineEndings:
    """A CRLF or lone-CR copy of a table loads and numbers its lines like the LF original."""

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("kind", LINE_ENDING_KINDS)
    def test_copy_loads_equal_and_names_the_same_line(self, tmp_path, kind, ending):
        valid, faulty, load = LINE_ENDING_KINDS[kind]
        lf, copy = tmp_path / "lf.csv", tmp_path / "copy.csv"
        lf.write_text(valid)
        copy.write_bytes(valid.replace("\n", ending).encode())
        assert load(copy) == load(lf)
        messages = []
        for path, text in ((lf, faulty), (copy, faulty.replace("\n", ending))):
            path.write_bytes(text.encode())
            with pytest.raises(dat.DataFormatError) as err:
                load(path)
            messages.append(str(err.value))
        assert messages[0] == messages[1] and messages[0].startswith("line 6: ")

    def test_other_unicode_line_breaks_stay_inside_their_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes("set,choice\n0;1,0\x0c\n0;1\u2028,1\n0;1,5\x85\n".encode())
        with pytest.raises(dat.DataFormatError) as err:
            dat.load_featureless_csv(path)
        assert str(err.value) == "line 4: choice 5 not in set (0, 1)"


# Each file kind: a valid text with a comment and a blank line, the same
# text with a fault on line 5, and a load whose results compare with ==.
ENCODING_KINDS = {
    "featureless": ("# c\nset,choice\n0;1,0\n\n2;0;1,2\n",
                    "# c\nset,choice\n0;1,0\n\n2;0;1,5\n",
                    lambda path, _: dat.load_featureless_csv(path)),
    "items": ("# c\nitem_id,f1\n0,1.5\n\n1,-2.0\n", "# c\nitem_id,f1\n0,1.5\n\n1,x\n",
              _featured_items),
    "observations": ("# c\nset,choice,s1\n0;1,0,5\n\n0;1,1,6\n",
                     "# c\nset,choice,s1\n0;1,0,5\n\n0;1,1,nan\n", _featured_observations),
    "truth": ("# c\nset,probs\n0;1,0.5;0.5\n\n0;1;2,0.25;0.25;0.5\n",
              "# c\nset,probs\n0;1,0.5;0.5\n\n0;1;2,0.25;0.25\n",
              lambda path, _: [(ids, probs.tolist())
                               for ids, probs in dat.load_probability_table(path).items()]),
    "halo": ("# universe=3\npair_j,pair_k,source_set,alpha\n0,1,,0.5\n\n0,1,2,0.25\n",
             "# universe=3\npair_j,pair_k,source_set,alpha\n0,1,,0.5\n\n0,1,2,nan\n",
             lambda path, _: read_halo_csv(path)),
}


class TestEncoding:
    """Tables are UTF-8; a leading byte-order mark reads as nothing."""

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("kind", ENCODING_KINDS)
    def test_invalid_utf8_names_file_and_line(self, tmp_path, kind, ending):
        valid, _, load = ENCODING_KINDS[kind]
        path = tmp_path / "table.csv"
        lines = valid.split("\n")
        lines[2] = lines[2][:-1] + "\udcff"  # the last character of line 3 becomes byte 0xff
        path.write_bytes(ending.join(lines).encode("utf-8", "surrogateescape"))
        with pytest.raises(dat.DataFormatError) as err:
            load(path, tmp_path)
        assert str(err.value) == f"{path}: line 3: not valid UTF-8"

    @pytest.mark.parametrize("kind", ENCODING_KINDS)
    def test_bom_copy_loads_equal_and_names_the_same_line(self, tmp_path, kind):
        valid, faulty, load = ENCODING_KINDS[kind]
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        for text in (valid, valid.removeprefix("# c\n")):
            plain.write_text(text)
            bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
            assert load(bom, tmp_path) == load(plain, tmp_path)
        messages = []
        for path, prefix in ((plain, b""), (bom, b"\xef\xbb\xbf")):
            path.write_bytes(prefix + faulty.encode())
            with pytest.raises(dat.DataFormatError) as err:
                load(path, tmp_path)
            messages.append(str(err.value))
        assert messages[0] == messages[1] and messages[0].startswith("line 5: ")


# ---------------------------------------------------------------------------
# The per-line loaders that the distinct-line reader replaced, kept as the
# reference it must match: a Dataset == theirs, and the same message for
# the same fault.
# ---------------------------------------------------------------------------


def _reference_table(path, header, rows_required=True):
    numbered = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                numbered.append((lineno, tuple(line.rstrip("\r\n").split(","))))
    if not numbered:
        raise dat.DataFormatError(f"{path}: no header row, expected '{header}'")
    (header_line, names), data_rows = numbered[0], numbered[1:]
    names = [name.strip() for name in names]
    want = header.removesuffix(",...").split(",")
    if (names[: len(want)] if header.endswith(",...") else names) != want:
        raise dat.DataFormatError(
            f"line {header_line}: expected header '{header}', got '{','.join(names)}'"
        )
    for lineno, row in data_rows:
        if len(row) != len(names):
            raise dat.DataFormatError(f"line {lineno}: expected {len(names)} fields, got {len(row)}")
    if rows_required and not data_rows:
        raise dat.DataFormatError(f"{path}: no data rows after the header")
    return names, data_rows


def _reference_choices(rows):
    by_ids: dict[tuple[int, ...], int] = {}
    set_index, chosen, slot = [], [], []
    for lineno, row in rows:
        ids = dat._parse_id_list(row[0], lineno)
        s = by_ids.setdefault(ids, len(by_ids))
        try:
            c = int(row[1])
        except ValueError:
            raise dat.DataFormatError(f"line {lineno}: cannot parse choice '{row[1]}'") from None
        try:
            slot.append(ids.index(c))
        except ValueError:
            raise dat.DataFormatError(f"line {lineno}: choice {c} not in set {ids}") from None
        set_index.append(s)
        chosen.append(c)
    return list(by_ids), set_index, chosen, slot


def reference_featureless(path):
    distinct, set_index, chosen, slot = _reference_choices(_reference_table(path, "set,choice")[1])
    width = max(map(len, distinct))
    sets = [dat.ChoiceSet(ids, width) for ids in distinct]
    return dat.Dataset.from_columns(sets, set_index, chosen, slot, max(map(max, distinct)) + 1)


def reference_featured(items_path, obs_path):
    header, item_rows = _reference_table(items_path, "item_id,...")
    d_item = len(header) - 1
    vectors: dict[int, list[float]] = {}
    for lineno, row in item_rows:
        try:
            item = int(row[0])
            vec = [float(v) for v in row[1:]]
        except ValueError:
            raise dat.DataFormatError(f"line {lineno}: cannot parse item row") from None
        if not all(map(math.isfinite, vec)):
            raise dat.DataFormatError(f"line {lineno}: item {item} has a non-finite feature")
        if item in vectors:
            raise dat.DataFormatError(f"line {lineno}: duplicate item id {item}")
        vectors[item] = vec
    header, obs_rows = _reference_table(obs_path, "set,choice,...")
    distinct, set_index, chosen, slot = _reference_choices(obs_rows)
    width = max(map(len, distinct))
    x = np.zeros((len(obs_rows), d_item + len(header) - 2, width))
    for block, (lineno, row), s in zip(x, obs_rows, set_index):
        try:
            values = [float(v) for v in row[2:]]
        except ValueError:
            raise dat.DataFormatError(f"line {lineno}: cannot parse shared features") from None
        if not all(map(math.isfinite, values)):
            raise dat.DataFormatError(f"line {lineno}: non-finite shared feature")
        for j, item in enumerate(distinct[s]):
            if item not in vectors:
                raise dat.DataFormatError(f"line {lineno}: item id {item} absent from items file")
            block[:, j] = vectors[item] + values
    sets = [dat.ChoiceSet(ids, width) for ids in distinct]
    return dat.Dataset.from_columns(sets, set_index, chosen, slot, max(vectors) + 1, x)


def reference_probability_table(path):
    table = {}
    first_line: dict[tuple[int, ...], int] = {}
    for lineno, row in _reference_table(path, "set,probs")[1]:
        ids = dat._parse_id_list(row[0], lineno)
        key = tuple(sorted(ids))
        if key in first_line:
            raise dat.DataFormatError(f"line {lineno}: set {key} repeats line {first_line[key]}")
        first_line[key] = lineno
        try:
            probs = np.array([float(v) for v in row[1].split(";")])
        except ValueError:
            raise dat.DataFormatError(f"line {lineno}: cannot parse probabilities") from None
        dat._check_probabilities(ids, probs, f"line {lineno}: ")
        table[ids] = probs
    return table


def _outcome(load, *paths):
    """What ``load`` gives: its result, or the message of the DataFormatError it raises."""
    try:
        return load(*paths)
    except dat.DataFormatError as exc:
        return str(exc)


def _assert_matches_reference(load, reference, *paths, valid):
    """``load`` gives what ``reference`` gives on ``paths``: an equal result or
    the same message; ``valid`` says which the reference gives."""
    ref = _outcome(reference, *paths)
    assert isinstance(ref, str) != valid
    got = _outcome(load, *paths)
    if isinstance(ref, str):
        assert got == ref
    elif isinstance(ref, dat.Dataset):
        assert got == ref
        assert got.sets == ref.sets and got.universe == ref.universe
        for name in ("set_index", "chosen", "slot"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))
        assert (got.features is None) == (ref.features is None)
        assert got.features is None or got.features.tobytes() == ref.features.tobytes()
    else:
        assert [(k, v.tolist()) for k, v in got.items()] == [(k, v.tolist()) for k, v in ref.items()]


def _random_lines(rng, header, texts, n_rows):
    """A table of ``n_rows`` lines drawn from ``texts``, with blank, blank-looking
    and '#' lines among them and comments before the header."""
    lines = ["# generated", "", header]
    for r in rng.random(n_rows):
        lines.append("" if r < 0.02 else "  \t" if r < 0.03 else "# note" if r < 0.05
                     else texts[rng.integers(len(texts))])
    return lines


def _write_lines(path, lines, rng):
    """Write ``lines`` with each ending drawn from LF, CRLF and a lone CR."""
    endings = rng.choice(["\n", "\r\n", "\r"], size=len(lines), p=[0.6, 0.2, 0.2])
    path.write_bytes("".join(map(str.__add__, lines, endings)).encode())


def _insert(lines, at, *texts):
    """``lines`` with each text inserted before position ``at`` of the body (past the header)."""
    out = list(lines)
    for text in texts:
        out.insert(3 + at, text)
    return out


_FEATURELESS_TEXTS = [
    f"{';'.join(map(str, ids))},{c}"
    for ids in [(0, 1), (2, 0, 1), (3,), (1, 4, 2, 0), (5, 3)] for c in ids
] + [" 0;1,0", "0; 1,1", "0;1 , 1", "2;0;1, 2", "0;1,0 "]

# Single-fault mutations of a valid featureless table of 3,000 rows.
FEATURELESS_MUTATIONS = {
    "valid": lambda lines: lines,
    "late-fault": lambda lines: _insert(_insert(lines, 2900, "0;1,7"), 2600, "0;1,7"),
    "late-fault-seen-set": lambda lines: _insert(lines, 2500, "2;0;1,x"),
    "parse-before-count": lambda lines: _insert(_insert(lines, 900, "0;1"), 10, "0;x,0"),
    "header-text-row": lambda lines: _insert(lines, 100, "set,choice"),
    "duplicate-ids": lambda lines: _insert(lines, 1200, "1;1,1", "1;1,1"),
    "long-row": lambda lines: _insert(lines, 1700, "0;1,0,9"),
}


class TestDistinctLineOracle:
    """The loaders equal the per-line reference loaders on seeded random tables."""

    @pytest.mark.parametrize("mutation", FEATURELESS_MUTATIONS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_featureless(self, tmp_path, seed, mutation):
        rng = np.random.default_rng(seed)
        lines = _random_lines(rng, "set,choice", _FEATURELESS_TEXTS, 3000)
        path = tmp_path / "d.csv"
        _write_lines(path, FEATURELESS_MUTATIONS[mutation](lines), rng)
        _assert_matches_reference(dat.load_featureless_csv, reference_featureless, path,
                                  valid=mutation == "valid")

    @pytest.mark.parametrize("mutation", [
        "valid", "identical-item-repeat", "item-id-repeat", "item-nan", "item-short",
        "absent-item", "shared-nan", "shared-text", "late-choice", "header-text-row",
        "parse-before-count",
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_featured(self, tmp_path, seed, mutation):
        rng = np.random.default_rng(seed)
        item_ids = [9, 2, 5, 14, 0]
        item_lines = ["# items", "", "item_id,f1,f2"] + [
            f"{i},{float(a)!r},{float(b)!r}" for i, (a, b) in zip(item_ids, rng.normal(size=(5, 2)))
        ]
        texts = [f"{';'.join(map(str, ids))},{c},{s}" for ids in [(9, 2), (5, 14, 0), (2,), (0, 9, 5)]
                 for c in ids for s in ("0.5", "-1.25")] + ["9; 2,2,0.5", "2;9,9, -1.25"]
        obs_lines = _random_lines(rng, "set,choice,s1", texts, 2000)
        edit = {
            "identical-item-repeat": [("items", 4, item_lines[4])],
            "item-id-repeat": [("items", 5, "5,0.0,0.0")],
            "item-nan": [("items", 3, "1,nan,0.5")],
            "item-short": [("items", 5, "1,0.5")],
            "absent-item": [("obs", 1500, "9;3,9,0.5")],
            "shared-nan": [("obs", 1800, "9;2,9,nan")],
            "shared-text": [("obs", 700, "9;2,9,x")],
            "late-choice": [("obs", 1900, "9;2,5,0.5")],
            "header-text-row": [("obs", 50, "set,choice,s1")],
            "parse-before-count": [("obs", 600, "9;2,9"), ("obs", 40, "9;2,x,0.5")],
        }.get(mutation, [])
        for which, at, text in edit:
            if which == "items":
                item_lines.insert(at, text)
            else:
                obs_lines = _insert(obs_lines, at, text)
        items, obs = tmp_path / "items.csv", tmp_path / "obs.csv"
        _write_lines(items, item_lines, rng)
        _write_lines(obs, obs_lines, rng)
        _assert_matches_reference(dat.load_featured_csv, reference_featured, items, obs,
                                  valid=mutation == "valid")

    @pytest.mark.parametrize("mutation", [
        "valid", "identical-repeat", "reordered-repeat", "repeat-before-parse-fault",
        "parse-fault-before-repeat", "sum", "short-row", "header-text-row",
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_probability_table(self, tmp_path, seed, mutation):
        rng = np.random.default_rng(seed)
        _, table = dat.gen_synthetic_simplex(6, 3, 12, 1, seed=seed)
        texts = [f"{';'.join(map(str, ids))},{';'.join(map(repr, probs.tolist()))}"
                 for ids, probs in table.items()]
        lines = ["# truth", "", "set,probs", *texts[:2], "", "# mid", *texts[2:]]
        late = len(lines) - 2
        edit = {
            "identical-repeat": [(late, texts[1])],
            "reordered-repeat": [(late, ";".join(reversed(texts[0].split(",")[0].split(";")))
                                  + ",0.2;0.3;0.5")],
            "repeat-before-parse-fault": [(late, "0;1;2;3,x"), (6, texts[0])],
            "parse-fault-before-repeat": [(late, texts[0]), (5, "0;1;2;3,x")],
            "sum": [(late, "0;1;2;5,0.5;0.5;0.5;0.5")],
            "short-row": [(late, "0;1;5")],
            "header-text-row": [(6, "set,probs")],
        }.get(mutation, [])
        for at, text in edit:
            lines.insert(at, text)
        path = tmp_path / "t.csv"
        _write_lines(path, lines, rng)
        _assert_matches_reference(dat.load_probability_table, reference_probability_table, path,
                                  valid=mutation == "valid")

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("kind", ["featureless", "truth"])
    def test_line_ending_fixtures(self, tmp_path, kind, ending):
        load, reference = {
            "featureless": (dat.load_featureless_csv, reference_featureless),
            "truth": (dat.load_probability_table, reference_probability_table),
        }[kind]
        path = tmp_path / "t.csv"
        for text, valid in zip(LINE_ENDING_KINDS[kind], (True, False)):
            path.write_bytes(text.replace("\n", ending).encode())
            _assert_matches_reference(load, reference, path, valid=valid)

    def test_beverage_file(self, tmp_path):
        path = tmp_path / "bev.csv"
        dat.write_featureless_csv(dat.sample_choices(dat.beverage_fixture(), 2000, seed=7), path)
        _assert_matches_reference(dat.load_featureless_csv, reference_featureless, path, valid=True)


class TestBeverageFixture:
    def test_pair_pepsi_coke(self):
        table = dat.beverage_fixture()
        np.testing.assert_array_equal(table[(0, 1)], [0.98, 0.02])

    def test_pair_sevenup_sprite(self):
        table = dat.beverage_fixture()
        np.testing.assert_array_equal(table[(2, 3)], [0.90, 0.10])

    def test_full_assortment(self):
        table = dat.beverage_fixture()
        np.testing.assert_array_equal(table[(0, 1, 2, 3)], [0.49, 0.01, 0.45, 0.05])

    def test_eleven_sets_all_normalized(self):
        table = dat.beverage_fixture()
        assert len(table) == 11
        for probs in table.values():
            assert math.fsum(probs.tolist()) == pytest.approx(1.0, abs=1e-12)


class TestSampleChoices:
    def test_degenerate_distribution(self):
        ds = dat.sample_choices({(0, 1): np.array([1.0, 0.0])}, 50, seed=0)
        assert all(o.chosen == 0 for o in ds.observations)

    def test_fair_coin_frequency_within_3_sigma(self):
        # Binomial(10000, 0.5): 3 sigma is 0.015, checked against [0.47, 0.53].
        ds = dat.sample_choices({(0, 1): np.array([0.5, 0.5])}, 10_000, seed=2)
        share = np.mean([o.chosen == 0 for o in ds.observations])
        assert 0.47 <= share <= 0.53

    def test_seed_determinism(self):
        table = dat.beverage_fixture()
        a = dat.sample_choices(table, 100, seed=9)
        b = dat.sample_choices(table, 100, seed=9)
        assert [o.chosen for o in a.observations] == [o.chosen for o in b.observations]

    def test_negative_probability_rejected(self):
        with pytest.raises(dat.DataFormatError, match="negative"):
            dat.sample_choices({(0, 1): np.array([1.5, -0.5])}, 5, seed=0)

    def test_bad_sum_rejected(self):
        with pytest.raises(dat.DataFormatError, match="sum"):
            dat.sample_choices({(0, 1): np.array([0.6, 0.5])}, 5, seed=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_probability_rejected(self, value):
        with pytest.raises(dat.DataFormatError, match=r"non-finite probability for set \(0, 1\)"):
            dat.sample_choices({(0, 1): np.array([1.0, value])}, 5, seed=0)

    def test_columns_equal_per_row_draws(self):
        """One draw call per set, in table order: the bytes `deephalo gen` writes."""
        table = dat.beverage_fixture()
        ds = dat.sample_choices(table, 200, seed=17)
        rng = np.random.default_rng(17)
        rows = []
        for ids, probs in table.items():
            for slot in rng.choice(len(ids), size=200, p=probs / probs.sum()):
                rows.append(dat.Observation(dat.ChoiceSet(ids, 4), ids[slot]))
        assert ds == dat.Dataset(rows, universe=4)
        chosen = [o.chosen for o in ds.observations]
        assert chosen[400:406] == [0, 3, 0, 3, 3, 0]  # the third set, (0, 3)
        assert chosen[-6:] == [0, 2, 0, 2, 0, 3]
        assert [len(ds.sets), ds.set_index.tolist()[::200]] == [11, list(range(11))]


class TestSimplexGenerator:
    def test_membership(self):
        _, table = dat.gen_synthetic_simplex(4, 4, 1, 5, seed=0)
        (probs,) = table.values()
        assert np.all(probs > 0)
        assert math.fsum(probs.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_mean_of_flat_simplex_draws(self):
        # Coordinates of a flat Dirichlet on the 2-simplex average 1/3.
        rng_seed = 5
        _, table = dat.gen_synthetic_simplex(3, 3, 1, 1, seed=rng_seed)
        rng = np.random.default_rng(rng_seed)
        draws = rng.exponential(1.0, size=(100_000, 3))
        draws /= draws.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(draws.mean(axis=0), 1 / 3, atol=0.005)

    def test_columns_equal_per_row_draws(self):
        ds, table = dat.gen_synthetic_simplex(6, 3, 4, 5, seed=19)
        assert list(table) == [(0, 2, 5), (0, 3, 4), (1, 2, 3), (2, 4, 5)]
        rng = np.random.default_rng(19)
        rng.choice(math.comb(6, 3), size=4, replace=False)
        for _ in table:
            rng.exponential(1.0, size=3)
        rows = [
            dat.Observation(dat.ChoiceSet(ids, 3), ids[slot])
            for ids, probs in table.items()
            for slot in rng.choice(3, size=5, p=probs)
        ]
        assert ds == dat.Dataset(rows, universe=6)
        assert [o.chosen for o in ds.observations] == [
            2, 2, 5, 5, 0, 0, 0, 0, 3, 0, 1, 3, 1, 3, 2, 2, 2, 4, 4, 4
        ]

    def test_exhaustive_enumeration(self):
        ds, table = dat.gen_synthetic_simplex(4, 2, 0, 3, seed=1)
        assert sorted(table) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert len(ds) == 18

    def test_too_many_subsets_rejected(self):
        with pytest.raises(dat.DataFormatError):
            dat.gen_synthetic_simplex(4, 2, 7, 1, seed=0)

    def test_enumeration_past_the_listing_bound_refused(self, monkeypatch):
        monkeypatch.setattr(dat, "MAX_LISTED_SUBSETS", 19)
        with pytest.raises(dat.DataFormatError, match="all 20 subsets .* than the 19 "):
            dat.gen_synthetic_simplex(6, 3, 0, 1, seed=0)
        monkeypatch.setattr(dat, "MAX_LISTED_SUBSETS", 20)
        _, table = dat.gen_synthetic_simplex(6, 3, 0, 1, seed=0)
        assert len(table) == 20

    def test_draws_past_the_listing_bound_refused(self, monkeypatch):
        # C(16, 8) = 12,870 subsets, above the bound: a positive count is
        # rejection-sampled, and a count above the bound is refused.
        monkeypatch.setattr(dat, "MAX_LISTED_SUBSETS", 1000)
        with pytest.raises(dat.DataFormatError, match="^1001 subsets requested, more than the 1000 "):
            dat.gen_synthetic_simplex(16, 8, 1001, 1, seed=0)
        _, table = dat.gen_synthetic_simplex(16, 8, 1000, 1, seed=0)
        assert len(table) == 1000

    def test_paper_scale_config_expressible(self):
        # 20 items, sets of 15: the exhaustive count is C(20,15); a sampled
        # handful must draw distinct subsets of the right size.
        assert math.comb(20, 15) == 15504
        ds, table = dat.gen_synthetic_simplex(20, 15, 3, 2, seed=3)
        assert len(table) == 3
        assert all(len(ids) == 15 for ids in table)

    def test_rejection_sampling_past_the_enumeration_limit(self):
        # C(30, 10) is more than the subsets gen lists, so the
        # subsets are drawn one at a time and duplicates rejected.
        assert math.comb(30, 10) > dat.MAX_LISTED_SUBSETS
        ds, table = dat.gen_synthetic_simplex(30, 10, 3, 2, seed=1)
        assert len(table) == 3
        assert list(table) == sorted(table)
        for ids in table:
            assert len(ids) == 10 and list(ids) == sorted(set(ids))
            assert all(type(i) is int and 0 <= i < 30 for i in ids)
        assert len(ds) == 6 and ds.universe == 30
        assert [o.chosen for o in ds.observations] == [0, 0, 17, 22, 21, 3]
        again_ds, again_table = dat.gen_synthetic_simplex(30, 10, 3, 2, seed=1)
        assert again_ds == ds
        assert list(again_table) == list(table)
        assert all(again_table[ids].tolist() == table[ids].tolist() for ids in table)


class TestEmpiricalFrequencies:
    def test_counting(self):
        cs = dat.ChoiceSet((0, 1), 2)
        ds = dat.Dataset(
            [dat.Observation(cs, c) for c in [0, 0, 1, 0]], universe=2
        )
        np.testing.assert_array_equal(
            dat.empirical_frequencies(ds)[(0, 1)], [0.75, 0.25]
        )

    def test_orders_of_one_set_count_together(self):
        rows = [((1, 0), 1), ((0, 1), 0), ((1, 0), 0), ((0, 2), 2), ((0, 1), 1), ((1, 0), 1)]
        ds = dat.Dataset([dat.Observation(dat.ChoiceSet(ids, 2), c) for ids, c in rows], universe=3)
        freq = dat.empirical_frequencies(ds)
        assert list(freq) == [(0, 1), (0, 2)]
        assert freq[(0, 1)].tolist() == [2 / 5, 3 / 5]
        assert freq[(0, 2)].tolist() == [0.0, 1.0]

    def test_singleton(self):
        ds = dat.Dataset([dat.Observation(dat.ChoiceSet((2,), 1), 2)], universe=3)
        np.testing.assert_array_equal(dat.empirical_frequencies(ds)[(2,)], [1.0])

    def test_frequencies_normalized_per_set(self):
        ds, _ = dat.gen_synthetic_simplex(5, 3, 4, 25, seed=8)
        for probs in dat.empirical_frequencies(ds).values():
            assert math.fsum(probs.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_empty_dataset_rejected(self):
        ds = dat.Dataset([], universe=2)
        with pytest.raises(dat.DataFormatError):
            dat.empirical_frequencies(ds)


class TestProbabilityTableIo:
    def test_round_trip(self, tmp_path):
        table = dat.beverage_fixture()
        path = tmp_path / "t.csv"
        dat.write_probability_table(table, path)
        loaded = dat.load_probability_table(path)
        assert set(loaded) == set(table)
        for k in table:
            np.testing.assert_array_equal(loaded[k], table[k])

    @pytest.mark.parametrize("second", ["0;1,0.9;0.1", "1;0,0.1;0.9", "0;1,0.5;0.5"])
    def test_repeated_set_names_both_lines(self, tmp_path, second):
        path = tmp_path / "t.csv"
        path.write_text(f"set,probs\n0;1,0.5;0.5\n0;2,0.5;0.5\n{second}\n")
        with pytest.raises(dat.DataFormatError, match=r"line 4: set \(0, 1\) repeats line 2"):
            dat.load_probability_table(path)

    @pytest.mark.parametrize("row,message", [
        ("0;2;3,0.5;0.5", r"line 4: set \(0, 2, 3\) has 2 probabilities"),
        ("0;2,nan;0.5", r"line 4: non-finite probability for set \(0, 2\)"),
        ("0;2,0.5;inf", r"line 4: non-finite probability for set \(0, 2\)"),
        ("0;2,1.5;-0.5", r"line 4: negative probability for set \(0, 2\)"),
        ("0;2,0.5;0.6", r"line 4: probabilities for set \(0, 2\) sum to 1\.1"),
    ], ids=["length", "nan", "inf", "negative", "sum"])
    def test_value_errors_name_their_line(self, tmp_path, row, message):
        path = tmp_path / "t.csv"
        path.write_text(f"set,probs\n0;1,0.5;0.5\n\n{row}\n1;2,0.5;0.5\n")
        with pytest.raises(dat.DataFormatError, match=message):
            dat.load_probability_table(path)


class TestSplits:
    def test_split_views(self):
        cs = dat.ChoiceSet((0, 1), 2)
        ds = dat.Dataset([dat.Observation(cs, i % 2) for i in range(4)], universe=2)
        ds = ds.with_splits({"train": [0, 1], "val": [2], "test": [3]})
        assert len(ds.observations_for("train")) == 2
        assert len(ds.observations_for("val")) == 1

    def test_manifest_round_trip(self, tmp_path):
        splits = {"train": [0, 2], "val": [1]}
        path = tmp_path / "s.json"
        dat.save_split_manifest(splits, path)
        assert dat.load_split_manifest(path) == splits

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([[0, 1]], "must map split names to index lists"),
            ({"train": [0, "a"]}, "split 'train' must be a list of integers"),
            ({"train": [0], "val": [True]}, "split 'val' must be a list of integers"),
            ({"train": 3}, "split 'train' must be a list of integers"),
        ],
    )
    def test_malformed_manifest_names_file_and_split(self, tmp_path, payload, message):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(dat.DataFormatError, match=message) as err:
            dat.load_split_manifest(path)
        assert str(path) in str(err.value)

    def test_manifest_that_is_not_json_names_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"train": [0,')
        with pytest.raises(dat.DataFormatError, match="not valid JSON") as err:
            dat.load_split_manifest(path)
        assert str(path) in str(err.value)

    def test_out_of_range_split_rejected(self):
        cs = dat.ChoiceSet((0, 1), 2)
        ds = dat.Dataset([dat.Observation(cs, 0)], universe=2)
        with pytest.raises(dat.DataFormatError):
            ds.with_splits({"train": [5]})


class TestDatasetEquality:
    def test_feature_blocks_compare_by_their_bits(self):
        # _store keeps blocks that differ only in the sign of a zero apart,
        # so == tells them apart too.
        cs = dat.ChoiceSet((0, 1), 2)

        def dataset(*blocks):
            return dat.Dataset([dat.Observation(cs, 0, np.array([b])) for b in blocks],
                               universe=2, feature_dim=1)

        plain = dataset([1.0, 0.0], [1.0, 0.0])
        signed = dataset([1.0, 0.0], [1.0, -0.0])
        assert (len(plain.sets), len(signed.sets)) == (1, 2)
        assert plain != signed
        assert signed == dataset([1.0, 0.0], [1.0, -0.0])
        assert plain == dataset([1.0, 0.0], [1.0, 0.0])
