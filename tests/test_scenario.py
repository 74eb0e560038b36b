"""Strict YAML schema, per-kind scenario runners, and deterministic export."""

import csv
import hashlib
import io
import json
import pathlib
import re

import pytest
import yaml

from stgames.errors import SchemaError
from stgames.scenario import (KINDS, STOCHASTIC_KINDS, RunRecord, Table,
                              parse_scenario, record_to_csv, record_to_jsonl,
                              run_scenario, write_outputs)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load(name, seed_override=None):
    text = (FIXTURES / f"{name}.yaml").read_text(encoding="utf-8")
    return parse_scenario(text, seed_override=seed_override)


def test_every_kind_has_a_fixture():
    assert sorted(p.stem for p in FIXTURES.glob("*.yaml")) == sorted(KINDS)
    for kind in KINDS:
        assert load(kind).kind == kind


def test_schema_error_paths_are_dotted():
    with pytest.raises(SchemaError) as err:
        parse_scenario("kind: wardrop\nwardrop:\n  origin: o\n")
    assert err.value.path == "wardrop"
    assert "missing required key" in err.value.message

    doc = yaml.safe_load((FIXTURES / "nash.yaml").read_text())
    doc["nash"]["extras"] = 1
    with pytest.raises(SchemaError) as err:
        parse_scenario(yaml.safe_dump(doc))
    assert err.value.path == "nash.extras"

    doc = yaml.safe_load((FIXTURES / "learn.yaml").read_text())
    doc["learn"]["horizon"] = "soon"
    with pytest.raises(SchemaError) as err:
        parse_scenario(yaml.safe_dump(doc))
    assert err.value.path == "learn.horizon"
    assert "expected an integer" in err.value.message

    # YAML booleans are not integers here
    doc["learn"]["horizon"] = True
    with pytest.raises(SchemaError):
        parse_scenario(yaml.safe_dump(doc))

    with pytest.raises(SchemaError) as err:
        parse_scenario("kind: tournament\ntournament: {}\n")
    assert err.value.path == "kind"
    with pytest.raises(SchemaError):
        parse_scenario("- just\n- a\n- list\n")
    with pytest.raises(SchemaError) as err:
        parse_scenario("kind: [unclosed")
    assert "syntax error" in err.value.message
    # libyaml and the pure-Python loader word errors differently (and place
    # an unclosed flow sequence on different lines) but both give a line.
    assert re.match(r"syntax error at line \d+: ", err.value.message)
    with pytest.raises(SchemaError) as err:
        parse_scenario("kind: coop\ncoop:\n  agents: 3\n    values: []\n")
    assert err.value.message.startswith("syntax error at line 4: ")

    def fixture(name):
        return yaml.safe_load((FIXTURES / f"{name}.yaml").read_text())

    nan_payoff = fixture("nash")
    nan_payoff["nash"]["game"]["payoffs"][1]["values"][0] = float("nan")
    inf_slope = fixture("wardrop")
    inf_slope["wardrop"]["edges"][0]["b"] = float("inf")
    nan_value = fixture("coop")
    nan_value["coop"]["values"][0]["value"] = float("nan")
    spaced = fixture("nash")
    game = spaced["nash"]["game"]
    game["actions"] = [["go left", "D"], ["go left", "D"]]
    for entry in game["payoffs"]:
        entry["profile"] = ["go left" if a == "C" else a for a in entry["profile"]]
    incentive_label = fixture("ttscale")
    incentive_label["ttscale"]["incentives"] = [
        {"profile": ["zz", "a"], "values": [1, 1], "signal": "lo"}]
    leader_profile = fixture("stackelberg")
    leader_profile["stackelberg"].update(
        game=fixture("nash")["nash"]["game"], candidates=["default"],
        leader_objective={"table": {"default": [{"profile": ["zz"], "value": 1}]}})
    trust = fixture("resilience")
    trust["resilience"]["trust"] = [[0.5] * 6] * 6
    nash_signal = fixture("nash")
    nash_signal["nash"]["signal"] = "zz"
    incentive_signal = fixture("incentive")
    incentive_signal["incentive"]["signal"] = "zz"
    repeated = fixture("resilience")
    repeated["resilience"]["adversary"] = {"agents": [5, 5], "kind": "sign-flip"}
    for doc, path in ((nan_payoff, "nash.game.payoffs[1].values[0]"),
                      (inf_slope, "wardrop.edges[0].b"),
                      (nan_value, "coop.values[0].value"),
                      (spaced, "nash.game.actions[0][0]"),
                      (incentive_label, "ttscale.incentives[0].profile[0]"),
                      (leader_profile,
                       "stackelberg.leader_objective.table.default[0].profile"),
                      (trust, "resilience.trust"),
                      (nash_signal, "nash.signal"),
                      (incentive_signal, "incentive.signal"),
                      (repeated, "resilience.adversary")):
        with pytest.raises(SchemaError) as err:
            parse_scenario(yaml.safe_dump(doc))
        assert err.value.path == path
    with pytest.raises(SchemaError) as err:
        load("learn", seed_override=-5)
    assert err.value.path == "seed"


def test_schema_checks_payoff_tables():
    doc = yaml.safe_load((FIXTURES / "nash.yaml").read_text())
    entries = doc["nash"]["game"]["payoffs"]

    short = dict(doc, nash={"game": {"actions": doc["nash"]["game"]["actions"],
                                     "payoffs": entries[:3]}})
    with pytest.raises(SchemaError) as err:
        parse_scenario(yaml.safe_dump(short))
    assert "3 of 4 profiles" in err.value.message

    dup = json.loads(json.dumps(doc))
    dup["nash"]["game"]["payoffs"][3] = dup["nash"]["game"]["payoffs"][0]
    with pytest.raises(SchemaError) as err:
        parse_scenario(yaml.safe_dump(dup))
    assert "duplicate profile" in err.value.message

    bad = json.loads(json.dumps(doc))
    bad["nash"]["game"]["payoffs"][0]["profile"] = ["C", "E"]
    with pytest.raises(SchemaError) as err:
        parse_scenario(yaml.safe_dump(bad))
    assert err.value.path == "nash.game.payoffs[0].profile[1]"

    wide = json.loads(json.dumps(doc))
    wide["nash"]["game"]["payoffs"][0]["values"] = [1, 2, 3]
    with pytest.raises(SchemaError) as err:
        parse_scenario(yaml.safe_dump(wide))
    assert err.value.path == "nash.game.payoffs[0].values"


def test_digest_ignores_formatting_not_content():
    a = parse_scenario("kind: nash\nname: pd\nnash:\n  game:\n"
                       "    actions: [[C, D], [C, D]]\n    payoffs:\n"
                       "      - {profile: [C, C], values: [3, 3]}\n"
                       "      - {profile: [C, D], values: [0, 5]}\n"
                       "      - {profile: [D, C], values: [5, 0]}\n"
                       "      - {profile: [D, D], values: [1, 1]}\n")
    b = parse_scenario("nash:\n  game:\n    payoffs:\n"
                       "      - {values: [1, 1], profile: [D, D]}\n"
                       "      - {values: [5, 0], profile: [D, C]}\n"
                       "      - {values: [0, 5], profile: [C, D]}\n"
                       "      - {values: [3, 3], profile: [C, C]}\n"
                       "    actions: [[C, D], [C, D]]\nname: pd\nkind: nash\n")
    assert a.digest == b.digest
    assert a.canonical == b.canonical

    c = parse_scenario("kind: nash\nname: qd\nnash:\n  game:\n"
                       "    actions: [[C, D], [C, D]]\n    payoffs:\n"
                       "      - {profile: [C, C], values: [3, 3]}\n"
                       "      - {profile: [C, D], values: [0, 5]}\n"
                       "      - {profile: [D, C], values: [5, 0]}\n"
                       "      - {profile: [D, D], values: [1, 1]}\n")
    assert c.digest != a.digest                 # the name is part of the document
    assert load("nash").digest != a.digest      # fixture carries another name


def test_seed_rules():
    assert set(STOCHASTIC_KINDS) <= set(KINDS)
    doc = yaml.safe_load((FIXTURES / "learn.yaml").read_text())
    del doc["seed"]
    with pytest.raises(SchemaError) as err:
        parse_scenario(yaml.safe_dump(doc))
    assert err.value.path == "seed"

    cfg = parse_scenario(yaml.safe_dump(doc), seed_override=99)
    assert cfg.seed == 99
    assert cfg.digest != load("learn").digest   # seed is part of the document
    assert load("nash").seed is None            # deterministic kinds run unseeded

    with pytest.raises(SchemaError):
        parse_scenario("kind: nash\nseed: -4\nnash: {game: {actions: [[a], [b]],"
                       " payoffs: [{profile: [a, b], values: [0, 0]}]}}\n")


def test_coop_runner():
    with pytest.warns(UserWarning, match="defaulting to 0"):
        sparse = parse_scenario(
            "kind: coop\ncoop:\n  agents: 2\n  values:\n"
            "    - {coalition: [0, 1], value: 1.0}\n")
    assert run_scenario(sparse).summary["cooperative_surplus"] == 1.0

    rec = run_scenario(load("coop"))
    s = rec.summary
    assert s["superadditive"] and s["convex"] and s["core_nonempty"]
    assert s["cooperative_surplus"] == 1.0
    assert s["shapley"] == pytest.approx([1 / 3] * 3)
    assert s["nucleolus"] == pytest.approx([1 / 3] * 3, abs=1e-9)
    assert rec.table("shapley").columns == ("agent", "value")
    with pytest.raises(KeyError):
        rec.table("no-such-table")


def test_match_runner():
    s = run_scenario(load("match")).summary
    assert s["stable"] is True
    assert s["pairs"] == [[0, 0], [1, 1], [2, 2]]
    assert s["stable_count"] == 2


def test_nash_runner():
    rec = run_scenario(load("nash"))
    assert rec.summary["equilibria"] == [["D", "D"]]
    assert rec.summary["poa"] == 3.0
    assert rec.summary["welfare_optimum"] == 6.0
    profiles = rec.table("profiles")
    assert len(profiles.rows) == 4
    flags = {r[:2]: r[-1] for r in profiles.rows}
    assert flags[("D", "D")] is True
    assert sum(flags.values()) == 1


def test_nash_eps_lists_eps_equilibria():
    doc = yaml.safe_load((FIXTURES / "nash.yaml").read_text())
    doc["nash"]["eps"] = 1.5
    rec = run_scenario(parse_scenario(yaml.safe_dump(doc)))
    assert rec.summary["equilibria"] == [["C", "D"], ["D", "C"], ["D", "D"]]
    flags = [r[-1] for r in rec.table("profiles").rows]
    assert flags == [False, True, True, True]


def test_learn_runner():
    rec = run_scenario(load("learn"))
    assert rec.summary["horizon"] == 200
    assert rec.summary["max_regret"] < 0.1
    assert len(rec.table("trace").rows) == 200
    assert rec.table("trace").rows[0][0] == 1
    gaps = rec.table("gap").rows
    assert [t for t, _ in gaps] == list(range(20, 201, 20))


def test_ttscale_runner():
    s = run_scenario(load("ttscale")).summary
    assert s["final_signal"] == "hi"
    assert s["signal_sequence"] == ["lo", "hi", "hi", "hi"]
    assert s["final_welfare"] > 2.5


def test_stackelberg_runner():
    s = run_scenario(load("stackelberg")).summary
    assert s["signal"] == "A"
    assert s["leader_value"] == 5.0
    assert s["follower_profile"] == ["x", "x"]
    assert s["skipped_signals"] == []


def test_stackelberg_table_missing_an_equilibrium_has_a_path():
    doc = yaml.safe_load((FIXTURES / "stackelberg.yaml").read_text())
    doc["stackelberg"].update(
        game=yaml.safe_load((FIXTURES / "nash.yaml").read_text())["nash"]["game"],
        candidates=["default"],
        leader_objective={"table": {"default": [{"profile": ["C", "C"],
                                                 "value": 1}]}})
    cfg = parse_scenario(yaml.safe_dump(doc))
    with pytest.raises(SchemaError) as err:
        run_scenario(cfg)
    assert err.value.path == "stackelberg.leader_objective.table.default"
    assert "['D', 'D']" in err.value.message


def test_wardrop_runner():
    s = run_scenario(load("wardrop")).summary
    assert s["equilibrium_per_unit_cost"] == pytest.approx(1.5, abs=1e-9)
    assert s["augmented_per_unit_cost"] == pytest.approx(2.0, abs=1e-9)
    assert s["braess_delta"] == pytest.approx(0.5, abs=1e-9)
    assert s["paradox"] is True
    assert s["tolled_per_unit_cost"] == pytest.approx(1.5, abs=1e-9)
    assert s["toll_flow_gap"] <= 1e-6


def test_incentive_runner():
    s = run_scenario(load("incentive")).summary
    assert s["status"] == "ok"
    assert s["payments"] == pytest.approx([2.0, 2.0])
    assert s["per_period_spend"] == pytest.approx(4.0)
    assert s["discounted_spend"] == pytest.approx(8.0)


def test_resilience_runner():
    rec = run_scenario(load("resilience"))
    s = rec.summary
    assert s["recovered"] is True
    assert s["final_diameter"] < 1e-9
    assert s["max_honest_deviation"] < 0.5
    assert len(rec.table("values").rows) == 13


def test_csv_export_shape():
    rec = run_scenario(load("nash"))
    parts = record_to_csv(rec)
    assert set(parts) == {"summary", "profiles"}
    lines = parts["summary"].splitlines()
    assert lines[0] == "key,value"
    pairs = dict(row for row in csv.reader(io.StringIO(parts["summary"])))
    assert pairs["kind"] == "nash"
    assert pairs["digest"] == rec.digest
    assert pairs["seed"] == ""
    assert pairs["poa"] == "3"
    # list values are embedded as JSON and survive the CSV quoting
    assert json.loads(pairs["equilibria"]) == [["D", "D"]]

    table_lines = parts["profiles"].splitlines()
    assert table_lines[0] == "action_0,action_1,payoff_0,payoff_1,is_nash"
    assert table_lines[-1] == "D,D,1,1,true"
    assert parts["profiles"].endswith("\n")


def test_jsonl_export_roundtrips_floats():
    rec = run_scenario(load("coop"))
    parts = record_to_jsonl(rec)
    header = json.loads(parts["summary"])
    assert header["kind"] == "coop"
    assert header["digest"] == rec.digest
    assert header["tables"] == ["shapley", "nucleolus"]
    assert header["summary"]["core_nonempty"] is True

    rows = [json.loads(line) for line in parts["nucleolus"].splitlines()]
    want = {r[0]: r[1] for r in rec.table("nucleolus").rows}
    for row in rows:
        assert row["value"] == want[row["agent"]]    # exact, 17 digits survive

    empty = RunRecord("nash", "d", None, {}, (Table.of("t", ("a",), []),))
    assert record_to_jsonl(empty)["t"] == ""
    assert record_to_csv(empty)["t"] == "a\n"


def test_write_outputs_reruns_byte_identical(tmp_path):
    cfg = load("resilience")
    rec = run_scenario(cfg)
    for fmt, ext in (("csv", "csv"), ("jsonl", "jsonl")):
        d1, d2 = tmp_path / f"{fmt}-a", tmp_path / f"{fmt}-b"
        paths = write_outputs(rec, d1, "res", fmt=fmt)
        write_outputs(run_scenario(cfg), d2, "res", fmt=fmt)
        names = sorted(p.name for p in d1.iterdir())
        assert names == [f"res.meta.json", f"res.summary.{ext}",
                         f"res.values.{ext}"]
        assert sorted(pathlib.Path(p).name for p in paths) == names
        for name in names:
            if name.endswith("meta.json"):
                meta = json.loads((d1 / name).read_text())
                assert {"digest", "kind", "note", "version",
                        "written_at"} == set(meta)
                continue
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    with pytest.raises(ValueError):
        write_outputs(rec, tmp_path, "res", fmt="parquet")


# sha256 of each fixture's canonical document (`cfg.digest`) and of every
# data file `write_outputs` writes for it, keyed by (fixture, seed override).
# The document digest is independent of the BLAS kernel; the data-file
# digests pin floats and so hold only where the same kernels run.
FIXTURE_GOLDENS = {
    ('coop', None): ('ab0350c3c30012c3ac8c85d1242e05a3f288035e12d035a89182b4fa5792e10f', {
        'nucleolus.csv': '6ce7061b0032dbc1eab5e1d0f67a23fdb9ac77d8deb0d20c1fd8eacdcea419f8',
        'nucleolus.jsonl': '66738ba4df0148ed4809b6ebcbf9045406f40e34cfc3bd9d12ad78efbb45e2a9',
        'shapley.csv': '0310180667abc7ab5093cf4bb82dc1416779a3bb66262774e7bed129c1328ae9',
        'shapley.jsonl': '2a3a87f2764142c575cbf0982a58bd3bcf8f7e663762c0e79227e64825bf5112',
        'summary.csv': 'ab8a8b4b2d4bb02aa1a08aca8bb71b200b71b0c3e28b80cf9aafaa0e32d578fd',
        'summary.jsonl': 'e61e8a1673373157f453e22e84925ae7a58ce097f1280842b2c6da9db52b6043',
    }),
    ('incentive', None): ('f646f1eefcf44ea021d526d02f8d79af207212bba90815ac115be7198b10eb44', {
        'payments.csv': '895315152a43ec82f371f4e9ba8d9adf2439afc2f0e0d31ca057c4e11473230e',
        'payments.jsonl': '0a76dee8ffacf48cfe9eefdfd51c3c958f0dbd095582db76e9d1b03e0e137e1a',
        'summary.csv': '6386520d1520de6177af2ca80dce432794d6f9df633ad8eaea359ac021ef9c72',
        'summary.jsonl': '177b4c4b416b019bc36b5d7e94ffc24b4e782736dd0d625a30c4fdd53328c4ca',
    }),
    ('learn', None): ('f7562568c089f1d760bf1a5e83a85860a9739795e2c733ee0105d585cedc3074', {
        'gap.csv': '6a232e7c979b235e4f4442a3a97a51720e09bbc28b74efc5758745cb1ae9d0b3',
        'gap.jsonl': '7cc9aa213e35fe53e0b3471d893d0e8d8f1d7f7a5638f68c02ddc1d9db65d45f',
        'summary.csv': '2b39cde461b1e4193da0261dda569ae6cdc9da8089d24f53dbf14a83f83a2243',
        'summary.jsonl': 'ffddb6bd50d84f2351b79b7b6953ec2db147c7ed4a68a997085ecdf67b715710',
        'trace.csv': '9c880394f83b12c20aa33cab42155998f483a083cea8cbfa4eac5c716e03b60e',
        'trace.jsonl': '8b558628a08f0e3711efe7c182efc6653f4a89dd92009ffd083ff006b8a24956',
    }),
    ('learn', 3): ('949ad93ef4a7fb76d30344ce672c5c34e252ce255c196cc493e6b7f0fa80352c', {
        'gap.csv': '4b3214b4d998fe8589e4bfa001c107aaf5b7ca9b6efaae31045b197fa4e6a4b1',
        'gap.jsonl': '8de77654f42228fd619058c8f2069b91778285b92ae28ff0ef10f6816b1fbbd3',
        'summary.csv': 'da81a00ae6668118359c6f10473dd3e7dfd3179a31f5258213553f63ed4e38f9',
        'summary.jsonl': 'f2657298b24770c66026462aeeca6f3ee06618c331f0bab6680274504b1df3bc',
        'trace.csv': '99fa2e68ba87fa66fae6ec6cb357635dd9638d867b66d8cd193daa58fa456907',
        'trace.jsonl': '021c4f08471b467ecb2e7a992042359a6f5d40fb13513dd59b22a6cddee683c2',
    }),
    ('match', None): ('783646bdff1a36de8a5d1db0ee3db50d4655117cf66da1b8417e427fa0c3598e', {
        'matching.csv': 'e64edc7fb5255de4ce3acfd0313f07094013aaaabad3eaf0aa5d666dfc638016',
        'matching.jsonl': 'c2b8fbbb800c777eddb7ee311ec67d4cb00ee4810172c02491c865670fcb5a58',
        'stable_set.csv': '818e26fb864b1e889c8b2ecffbfa532185025113dc3390a9231e90e8b05a22fa',
        'stable_set.jsonl': '75c06635353fb44062b80251ea11cadf8f668a7f7b3d0a7d8cd0c3b838554c51',
        'summary.csv': 'edd153efb3058b2c586cfc64c51d92cac10fcbee3aca0609aa5c9825466fcaac',
        'summary.jsonl': '93d06c1855c75700896f383ee8e70ad3b5b5549e8b0ce8a5f4f12fb65107d643',
    }),
    ('nash', None): ('16e75ad3dc4d8d45a3f4ec1cbadd9c5db156aff9af755f146106973c7f1525db', {
        'profiles.csv': 'a8868c0d885bb60f44087e03fe6cc9a62d2ce3fa79f5e2c930066ddbad3a18cb',
        'profiles.jsonl': '340211c5b86751ffa345db5db51b46b0f95347f7bb88bb4b210ae9131cc2a4e6',
        'summary.csv': '1f908da7fbc83b7b3ec3f014b535f7c416e978af265e95f2ad221a1cd892e7ee',
        'summary.jsonl': '71884759a87e43d3aad1a7f49acca077a30ea7d98c21a249d5f006b4ed832354',
    }),
    ('resilience', None): ('1b28e17d69dc4f43945d8e3a56244fdc8205927304790dc784612f8b2570c293', {
        'summary.csv': '8faf1ed39b1350eb0ffa2bc6369eb6509821e2d939d11fd336b6110389868806',
        'summary.jsonl': '0856906049939fc35aa0379d95e101fdc8f8c659e31e4350f7d2e0976d3dce9b',
        'values.csv': '22d3e4d215db322c84dd08446c50b25131835883735803994e79eb021326643e',
        'values.jsonl': '62f2cfa311ae710473b19060128f918f689c0e9b76dd89538e8bcf8b0dc3a3ab',
    }),
    ('resilience', 3): ('d2832272fe1ed32f69d2189cc0d6f58583e10892db22c2080093b111f9e06642', {
        'summary.csv': 'cc3052ef7b067cfe9674238ccc35286432ee455b28949bebc2d49505b3ce3bf6',
        'summary.jsonl': '87cdbe4c8d528834707cc1466a924b634343a5324d17c60d4598f120b5dd8b9e',
        'values.csv': '22d3e4d215db322c84dd08446c50b25131835883735803994e79eb021326643e',
        'values.jsonl': '62f2cfa311ae710473b19060128f918f689c0e9b76dd89538e8bcf8b0dc3a3ab',
    }),
    ('stackelberg', None): ('5cebd487c120264487f7101ee334460f59b31d984fb847a4be81c4d93cc0893b', {
        'candidates.csv': 'a88e5f6002293ed9a0b6022d120eae52d80c3aa60354514d7e7b2d30b3bdb148',
        'candidates.jsonl': 'c453f06df69a1c0aa8a9d181a04936d89680ff5b95df06c5250c2a2f7c8978d0',
        'summary.csv': 'c30dffb3b104ba2be6678d2a7c97c3d927d1c019a3763c232a99afa70091d6a1',
        'summary.jsonl': '7939487728caba3fe4604c68b3dc85c039aab1f35462c2f69c3494fd04e94b01',
    }),
    ('ttscale', None): ('7a8ef26d0f67823bbdee7599ddba0ac135e1dc99cec04c499bd6687d7c714363', {
        'epochs.csv': '53fba859318eb7e7263612a6e4ea061ccd3bb8b33e79f277bc69d10dc693e75e',
        'epochs.jsonl': '2355ce241776e2e12b7ddb967b8f70c985bcebe6ddb84481b59854cbe670c706',
        'summary.csv': '5d04db24ac940adabb629f976ea9dcae1d13c9bae113ad9ae743dcee53e6d7cf',
        'summary.jsonl': '2afb71fded9d4f2d1f467aac461881ec7817e98c4a58aa164d853fb9ccc2a627',
    }),
    ('ttscale', 3): ('27c011dacedc9f8fa22f291004152045623d5abc4f3fc3f551b9f7cda589a041', {
        'epochs.csv': '328b4f6207acba56d6f5f404b04aaae3537406b8d4e66f90de044c66baa62927',
        'epochs.jsonl': '43e1709945757676dc1f754a0739354e9bae60c8511214faec4d23176d29c62c',
        'summary.csv': '0739523fd70ea4cd8a8fa1d666ad3220b463576159f76cf44052738c36b88c4a',
        'summary.jsonl': '3ca60c367b78a23506a214f0d5a92d2de88063b18e0ac4b815fbcafcab7220c3',
    }),
    ('wardrop', None): ('ee6a82dc35079df7ce2d8aaa4f987c81b03a5561c222cfb603cc8886584666b1', {
        'equilibrium_paths.csv': '6ef9ccf4a475dc7746c723cf430cdf51cd15929cf47d787cdd27bdc68c41edff',
        'equilibrium_paths.jsonl': '0a87985490b2f94d34692c74af30ca4c1b4a9decc35352c5d0527e1703ea7003',
        'optimum_paths.csv': '6ef9ccf4a475dc7746c723cf430cdf51cd15929cf47d787cdd27bdc68c41edff',
        'optimum_paths.jsonl': '0a87985490b2f94d34692c74af30ca4c1b4a9decc35352c5d0527e1703ea7003',
        'summary.csv': 'b3e4caf63a55cc08d7047f4d377acfc19273652dc7cffdf53049aeaeb5f7c5b4',
        'summary.jsonl': 'f611a0a721c514dd4040994d6dae28e4a09b46fd170a686c4b503698fc4aa97b',
        'tolls.csv': 'de6ff863e19f5ab8c5945d119ee887c26a106b2b5138771c361085576e4554ad',
        'tolls.jsonl': 'fd6a06e0e7cddbf8b3f45a84352ba89a52a11321cbe82c1213fd658eaf2442b6',
    }),
}


@pytest.mark.parametrize("name,seed", sorted(FIXTURE_GOLDENS, key=str))
def test_fixture_goldens(name, seed, tmp_path):
    digest, files = FIXTURE_GOLDENS[name, seed]
    cfg = load(name, seed_override=seed)
    assert cfg.digest == digest
    record = run_scenario(cfg)
    got = {}
    for fmt in ("csv", "jsonl"):
        for path in write_outputs(record, tmp_path, name, fmt=fmt):
            path = pathlib.Path(path)
            if not path.name.endswith(".meta.json"):
                got[path.name[len(name) + 1:]] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    assert got == files
