"""Byte-level golden outputs of the CLI on a fixed, seeded corpus.

Each case is an edge-list text: the worked example, or a generator tree whose
vertices are relabelled through a seeded mix of numeric and alphanumeric
labels, with its edges shuffled and randomly oriented.  For every case the
test hashes what the CLI prints: the ``solve`` report (minus its timing
lines) and host file, the ``solve --json`` document (minus ``wall_times``),
and for small cases also ``--phase1-only``, ``--debug-checks``, ``eval``,
``lb`` and ``check``.  The digests were recorded once, from the code as it
was before the trees moved to one array representation, and are never
regenerated: any change of output is a failure.

The ``json`` digest sorts the charge ledger.  The ledger lists the matches
in the order the sequential sweep fires them; older code printed them in
the vectorized replay's layer order from n = 20 000 up, so only the small
cases (``json-raw``) pin the printed order byte for byte, and
``test_ledger_order_is_the_sweep_order`` pins it at the larger sizes.

``test_json_bytes`` pins the JSON writers byte for byte on the same corpus:
the ``solve --json`` report as printed (only the numbers inside
``wall_times`` masked) with and without ``--out``, the JSON host file, and
the ``--phase1-only`` report, whose host still lists steiner nodes.  Its
digests were recorded from the code as it was before the JSON writers
stopped going through ``json.dumps``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re

import pytest

from treehost import gen
from treehost.cli import main

import helpers

# (kind, n) of the generator trees; seed = n for the tree and the labels
GEN_CASES = [("random", 2), ("random", 9), ("random", 1000),
             ("random", 19_999), ("random", 20_001), ("star", 20_001),
             ("random", 50_001), ("caterpillar", 50_001),
             ("random", 120_000)]
SMALL_N = 1000


def relabelled_text(kind: str, n: int) -> str:
    """Generator tree as edge-list text with seeded mixed labels."""
    rng = random.Random(n * 7919 + len(kind))
    tree = gen(kind, n, seed=n)
    values = rng.sample(range(10 * n), n)
    labels = [str(x) if rng.random() < 0.5 else f"k{x:x}" for x in values]
    edges = [(labels[u], labels[v]) if rng.random() < 0.5
             else (labels[v], labels[u])
             for u, v in helpers.demand_edges(tree)]
    rng.shuffle(edges)
    return "".join(f"{a} {b}\n" for a, b in edges)


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _untimed(report: str) -> str:
    return "".join(line for line in report.splitlines(keepends=True)
                   if not line.startswith("time "))


def _untimed_doc(report: str) -> dict:
    doc = json.loads(report)
    doc.pop("wall_times")
    return doc


def case_digests(text: str, n: int, tmp_path) -> dict[str, str]:
    edges = tmp_path / "in.edges"
    edges.write_text(text)
    out: dict[str, str] = {}
    for tiebreak in ("lex", "id"):
        host = tmp_path / f"host-{tiebreak}.txt"
        base = ["solve", str(edges), "--tiebreak", tiebreak]
        out[f"{tiebreak}/solve"] = _sha(_untimed(_run(base + ["--out", str(host)])))
        out[f"{tiebreak}/host"] = _sha(host.read_text())
        doc = _untimed_doc(_run(base + ["--json"]))
        if n <= SMALL_N:
            out[f"{tiebreak}/json-raw"] = _sha(json.dumps(doc, indent=2))
        doc["charge_ledger"].sort()
        out[f"{tiebreak}/json"] = _sha(json.dumps(doc, indent=2))
        if n > SMALL_N:
            continue
        p1 = tmp_path / f"p1-{tiebreak}.txt"
        out[f"{tiebreak}/phase1"] = _sha(
            _untimed(_run(base + ["--phase1-only", "--out", str(p1)])))
        out[f"{tiebreak}/phase1-host"] = _sha(p1.read_text())
        out[f"{tiebreak}/debug"] = _sha(_untimed(_run(base + ["--debug-checks"])))
        for name, h in (("final", host), ("phase1", p1)):
            out[f"{tiebreak}/eval-{name}"] = _sha(
                _run(["eval", str(edges), "--host", str(h)])
                + _run(["eval", str(edges), "--host", str(h), "--json"]))
    if n <= SMALL_N:
        out["lb"] = _sha(_run(["lb", str(edges)])
                         + _run(["lb", str(edges), "--json"]))
        out["check"] = _sha(_run(["check", str(edges), "--no-oracle"]))
    return out


def _case_text(name: str) -> tuple[str, int]:
    kind, n = name.rsplit("-", 1)
    return relabelled_text(kind, int(n)), int(n)


CASES = ["fig"] + [f"{kind}-{n}" for kind, n in GEN_CASES]

GOLDEN: dict[str, dict[str, str]] = {
    'fig': {
        'lex/solve':
            '3805b384fa34f446d6f56ad9906662abb998676247f13325aa929d598a93cdd0',
        'lex/host':
            'bcac50cb2587d933873b27277508bff0f9c75ed7bd800f219628815226bd8cfe',
        'lex/json-raw':
            '3a48ce8cc68f39b75d13b1bdc9e432c9b36630b7933dfe79952b84b43862ce16',
        'lex/json':
            'a00ef7cd49e920e389e36b27205a841fad5eeb73358d0d1f23140b6799491d3d',
        'lex/phase1':
            'e5bd225c8fa9c5d7f157a9452653ffca522a7e6c6aa46e636cf3a7ceedc19bb9',
        'lex/phase1-host':
            '727d4d66e55519efd22238f8363dd971ba9b20ac3b945c845f6ee2e040c5e1dd',
        'lex/debug':
            'b286c667cbc8cd958a42e2837a802a82f429aa1e3b6086063f83862846964582',
        'lex/eval-final':
            'b1a1905b045516f598d25e3dbd6d2bd7d8bb6bdeff9f7ffd3cc2d05384b660cd',
        'lex/eval-phase1':
            '1153cf4f5e48b50af4a77b7ccf7c25bc0de0fe66fa1b55da37c867fa62834a53',
        'id/solve':
            '3805b384fa34f446d6f56ad9906662abb998676247f13325aa929d598a93cdd0',
        'id/host':
            'bcac50cb2587d933873b27277508bff0f9c75ed7bd800f219628815226bd8cfe',
        'id/json-raw':
            '39d764c4b8cf91e563ddf4a915c26cdbdcfa3a5c4e6438865f7bfe0825c16cc9',
        'id/json':
            '1063f58ea01153e720c50d8faf3cef298a9c59d3421042c000a9b1ac1fa462bc',
        'id/phase1':
            'e5bd225c8fa9c5d7f157a9452653ffca522a7e6c6aa46e636cf3a7ceedc19bb9',
        'id/phase1-host':
            '727d4d66e55519efd22238f8363dd971ba9b20ac3b945c845f6ee2e040c5e1dd',
        'id/debug':
            'b286c667cbc8cd958a42e2837a802a82f429aa1e3b6086063f83862846964582',
        'id/eval-final':
            'b1a1905b045516f598d25e3dbd6d2bd7d8bb6bdeff9f7ffd3cc2d05384b660cd',
        'id/eval-phase1':
            '1153cf4f5e48b50af4a77b7ccf7c25bc0de0fe66fa1b55da37c867fa62834a53',
        'lb':
            '228518de5184744ff54fa9a4fed97a2781c6131724c7a16fdebd8e343ec815c7',
        'check':
            '9b80ee7186c758faac3c6d285c90271303b125ddcebb0387ae6586eb1ab013f8',
    },
    'random-2': {
        'lex/solve':
            '345047cd442da6e1a2eca2479259457bfcbc8101aa8fd132ecf35d7855b15e27',
        'lex/host':
            '8ff7c90b24c8f3e2f81f5d6cf799d49426b9dbf50614ed1e2f02d8dce272d027',
        'lex/json-raw':
            '991ff21dd1f8571869e626114486595c5ccc4f47c4e599845c153244386aad93',
        'lex/json':
            '991ff21dd1f8571869e626114486595c5ccc4f47c4e599845c153244386aad93',
        'lex/phase1':
            '4fed0b8679617266c29af5df34aeebae69867a6664335ff73231b3cc782c0efc',
        'lex/phase1-host':
            '8ff7c90b24c8f3e2f81f5d6cf799d49426b9dbf50614ed1e2f02d8dce272d027',
        'lex/debug':
            '63e4cc5886bde798462208b4d426d423585d99a75f14f6c0d6757db750bd5aca',
        'lex/eval-final':
            '3598f048eb408cc0bade005c3f64098dea695df50892950e250755d2cc20176b',
        'lex/eval-phase1':
            '3598f048eb408cc0bade005c3f64098dea695df50892950e250755d2cc20176b',
        'id/solve':
            '345047cd442da6e1a2eca2479259457bfcbc8101aa8fd132ecf35d7855b15e27',
        'id/host':
            '8ff7c90b24c8f3e2f81f5d6cf799d49426b9dbf50614ed1e2f02d8dce272d027',
        'id/json-raw':
            '2ff9581d7ad273c8926f33c2aae6ad18fbde8383015fddca5f8c6f10a8bcf93a',
        'id/json':
            '2ff9581d7ad273c8926f33c2aae6ad18fbde8383015fddca5f8c6f10a8bcf93a',
        'id/phase1':
            '4fed0b8679617266c29af5df34aeebae69867a6664335ff73231b3cc782c0efc',
        'id/phase1-host':
            '8ff7c90b24c8f3e2f81f5d6cf799d49426b9dbf50614ed1e2f02d8dce272d027',
        'id/debug':
            '63e4cc5886bde798462208b4d426d423585d99a75f14f6c0d6757db750bd5aca',
        'id/eval-final':
            '3598f048eb408cc0bade005c3f64098dea695df50892950e250755d2cc20176b',
        'id/eval-phase1':
            '3598f048eb408cc0bade005c3f64098dea695df50892950e250755d2cc20176b',
        'lb':
            '55be16b0c46f298ce3bd3ef83bc4c4f8eb0d83695d071dbaab97bf34f49c9343',
        'check':
            '9b80ee7186c758faac3c6d285c90271303b125ddcebb0387ae6586eb1ab013f8',
    },
    'random-9': {
        'lex/solve':
            '032ba884f6a76abfba3c9359c1721d03b2f87f79f2b71e50e9648793d1bade21',
        'lex/host':
            '43173252cf7586a2141bfa8193b20201b9208c04ed10d69980004afe008498c1',
        'lex/json-raw':
            'd0fcd943cdec113ffffc3e5e76aa2e40a314dde712458092eee680010dcb53ab',
        'lex/json':
            'af54520ce3d79f7ad1a4b4dd5600a184fd9d87724a546482def77cc894291db6',
        'lex/phase1':
            '4004860364017516e0175cf4c8ff0dce3450318399a1e91dfe33407c03583c5b',
        'lex/phase1-host':
            'de2bf459213ffa6da519edcd36d7dd7941196ed5d48cdbf8b316783d8e6099e1',
        'lex/debug':
            'e1a3b534fa9e55eb40654dda30afa80acefc0bcc894459087705a21843e012bd',
        'lex/eval-final':
            '33baefe1f6500b89251ea5dfc1af1a0265a97ccb7f4181c6146b5a507c4d4b1d',
        'lex/eval-phase1':
            'ea81ca948aab1b96c2ccc9a17536b84ff2bc21557e58935c90251e0a38659ea0',
        'id/solve':
            '032ba884f6a76abfba3c9359c1721d03b2f87f79f2b71e50e9648793d1bade21',
        'id/host':
            '559461a01ef167914a0f1e1294e1aa1a756b0370bdf019db2af3b905a4ac6324',
        'id/json-raw':
            'e0646519c6b1f4e4cf5189b18c617c95004e215654bcf0b17a37b1c33d15c24a',
        'id/json':
            '35c7a9cf32e740ac9c0c61b8b1e5d67b73c33094a2019575441da28544841150',
        'id/phase1':
            '4004860364017516e0175cf4c8ff0dce3450318399a1e91dfe33407c03583c5b',
        'id/phase1-host':
            'de2bf459213ffa6da519edcd36d7dd7941196ed5d48cdbf8b316783d8e6099e1',
        'id/debug':
            '07ee4336f8771d27dba0e6581d54aa93a45dfce721a2fec967855df2a97fe0d6',
        'id/eval-final':
            '7897a1ffa84e3fda625dda72b02ec789f4fd3d61cfb83e913e65036dfa55d7af',
        'id/eval-phase1':
            'ea81ca948aab1b96c2ccc9a17536b84ff2bc21557e58935c90251e0a38659ea0',
        'lb':
            'd7fdf8d719e87c90351c94e37fa5ce3bfce3accb8cb66bc97c4490ce11a270cf',
        'check':
            '9b80ee7186c758faac3c6d285c90271303b125ddcebb0387ae6586eb1ab013f8',
    },
    'random-1000': {
        'lex/solve':
            'd2ff61d06f39c6f1aad4cfca8758a16a58df091fbfc3151d21d042ec84b05fe6',
        'lex/host':
            'df42d506c760b68791091aa3f5ad1c73b8e03f8e5e5ea813da86277faa7c0515',
        'lex/json-raw':
            'bdc17bd13b793f223ce19bd0882f2126fd14e35dfca3df4514540f3688424fec',
        'lex/json':
            '286c6da26d805d7fe830448115b4c2e3977ab9a3e0dc450e740c62a88f6a24b9',
        'lex/phase1':
            'f719f949caf1dc9a78b7777cbf7b6a9ce99f9ecdc96dcfe6f0fa581fef0aa45d',
        'lex/phase1-host':
            '4cd5a60838c2dee2a97b66888f957b511cfa7bbecca51644ce21c088ae2df98e',
        'lex/debug':
            'bcb19844eca9a86de641039f3f88b1950820fe6c97196cb5db1b74691215f822',
        'lex/eval-final':
            'b97ed6a01480a04ac17bcf77cf33c00999df0d14af4317256d360b0a2efd690d',
        'lex/eval-phase1':
            'ff2dafdbb12b436f53daa64012bc26be88fdab53f573d217399c216d19c5f95a',
        'id/solve':
            'd2ff61d06f39c6f1aad4cfca8758a16a58df091fbfc3151d21d042ec84b05fe6',
        'id/host':
            '4d08766ce6299b6b7e7880f2e9d8c5996db38320b2e61e7e5893d18f2081000d',
        'id/json-raw':
            'a5059138fa905e753088968b5159a69771b0217506cc0ade92442d2aaf3ac08f',
        'id/json':
            '277f476147385996a5a7a85cf4190fe660e860ccc5b3c4ccdb18a2fd84fadad3',
        'id/phase1':
            'f719f949caf1dc9a78b7777cbf7b6a9ce99f9ecdc96dcfe6f0fa581fef0aa45d',
        'id/phase1-host':
            '4cd5a60838c2dee2a97b66888f957b511cfa7bbecca51644ce21c088ae2df98e',
        'id/debug':
            'b917a2b274cf08b08d7fe236a4a4256f18e9f400ce2b01761631557314ba4770',
        'id/eval-final':
            '5f475011dcad3b38daaacd2d8d03add4647827030f279d5799ab2f84cae787cb',
        'id/eval-phase1':
            'ff2dafdbb12b436f53daa64012bc26be88fdab53f573d217399c216d19c5f95a',
        'lb':
            'c7dd623f5175fd08ee9cf061f58a32e54d1b16f0a5a4b6d56639424214e10eb6',
        'check':
            '9b80ee7186c758faac3c6d285c90271303b125ddcebb0387ae6586eb1ab013f8',
    },
    'random-19999': {
        'lex/solve':
            '0c61f2e78aab182418e12429a6f5eeab3cd88aab6cf836acd9372dcf25e64a00',
        'lex/host':
            'd6c31dedd414e41c1da8ff87b0a6b9f9d6dff4e42f255ee94342cd49ef08814a',
        'lex/json':
            '06f123b9259647616b58f8e371ad770260deb89efcf08ccc8f14c9d13cf1b3e4',
        'id/solve':
            '0c61f2e78aab182418e12429a6f5eeab3cd88aab6cf836acd9372dcf25e64a00',
        'id/host':
            '9b891ad49a79d407c72d1618c2d32d0b025b04c1da8915e19423d570fe3d6341',
        'id/json':
            '2e50790b623fc84cb19ccfb2640a6de0bb2f25c1f550bd7d0409a42489b22b5f',
    },
    'random-20001': {
        'lex/solve':
            '81c0480cd24ca4bb4de46ddc374e628d00375668993610a73b8439ff8f658be1',
        'lex/host':
            '1c79788268b4d3d0a12d0ace7f488a5601cad4a73e4a631a376fe58db63f62e7',
        'lex/json':
            '8c28354b01530421104af4aefd0dadf5e1290dcdf40236e5a5d8f1fea10aae31',
        'id/solve':
            '81c0480cd24ca4bb4de46ddc374e628d00375668993610a73b8439ff8f658be1',
        'id/host':
            '3aac79bda223e5f961dccceb33f5d9efe821ff2445c0f730165f5f9a43b4ae88',
        'id/json':
            '8666e0c6e0c8ab04ed88c054c7bbe9a8c5a40671ba78da83094ea6c030e366c6',
    },
    'star-20001': {
        'lex/solve':
            '79a720b5e515ba843fdc997abee4a9664709f7900da73a8c398f584a146d914e',
        'lex/host':
            '137072957446bc285cb7edb9e1e3e3c97844d1df1648646dc9ce5543e4722ba8',
        'lex/json':
            'df440d298b2305d393de5979679734b2b73b3ec1fae6cf4ff1fe1b21889d91a0',
        'id/solve':
            '79a720b5e515ba843fdc997abee4a9664709f7900da73a8c398f584a146d914e',
        'id/host':
            'bd91a53b7a3bcb096abe86ffc2bf8d339d643deadf454dabe5ce1bb2344c1579',
        'id/json':
            'f554f87fe3b4e11d9b80e1b21bb0ab9e284e393abeb8131381f7831d209b1e3f',
    },
    'random-50001': {
        'lex/solve':
            'd23baa19d229d2433708bebc923d955fff5672d4d957f8a0a9bedd72825b8779',
        'lex/host':
            '45bf3e8f3a0678192919eaccfb512176aa10a7efa576e87733219e3c38f4c8c4',
        'lex/json':
            'ac896c87400d3433756632360722c1a7917ce0655155ab49ceb917c03f6c99c5',
        'id/solve':
            'd23baa19d229d2433708bebc923d955fff5672d4d957f8a0a9bedd72825b8779',
        'id/host':
            'd704983da5d517d72e8d99f029e30974b619371e0286773ce69143bc697c7290',
        'id/json':
            'd5ab63bbe509d09314e738f4841925ee39ce230b9781d5646885bd3f891a7d22',
    },
    'caterpillar-50001': {
        'lex/solve':
            'b0e7f91cc1dc9feb9652562be762dd07f9cb9d1421fe8e21ac2972873a035ba9',
        'lex/host':
            '3e6b20c32b8b61df8af9e9eaabdaa189b4c10802545a61ed639b361f6982ada3',
        'lex/json':
            '419f832ecfca6caa1572430a32775bca78b608d908f03781c52b6e26d9ec64d6',
        'id/solve':
            'b0e7f91cc1dc9feb9652562be762dd07f9cb9d1421fe8e21ac2972873a035ba9',
        'id/host':
            '3e6b20c32b8b61df8af9e9eaabdaa189b4c10802545a61ed639b361f6982ada3',
        'id/json':
            '76b6f148e7f07b719dba9a50830cc53a4ea688131aad21109bdc0e72de338cdd',
    },
    'random-120000': {
        'lex/solve':
            'd4cb8ffa38fd49abdce81fe8e60fb622ada9bda746cedae9777583a524f98835',
        'lex/host':
            'a5e75630d12efb3b6ed55ca8c593333a2d6b2aec8251e977521d7c96c16d3bdb',
        'lex/json':
            '215a7255b73e0c806c85c639630e4c94b1e28766fba684af5e1558c88c6333f1',
        'id/solve':
            'd4cb8ffa38fd49abdce81fe8e60fb622ada9bda746cedae9777583a524f98835',
        'id/host':
            'db12ea65822891bc0b115523d75942cf6fa0a950d6118742458c492e0fdc9785',
        'id/json':
            '273fc6f7242265d2842ea16ef0895346f9da6020e12c96c80baf24f6e0e9e501',
    },
}


@pytest.mark.parametrize("name", CASES)
def test_golden_outputs(name, fig_text, tmp_path):
    text, n = (fig_text, 14) if name == "fig" else _case_text(name)
    assert case_digests(text, n, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", ["random-20001", "star-20001"])
def test_ledger_order_is_the_sweep_order(name, tmp_path):
    """The vectorized replay prints the same document, ledger order
    included, as the sequential sweep that ``--debug-checks`` runs."""
    edges = tmp_path / "in.edges"
    edges.write_text(_case_text(name)[0])
    for tiebreak in ("lex", "id"):
        base = ["solve", str(edges), "--json", "--tiebreak", tiebreak]
        assert (_untimed_doc(_run(base))
                == _untimed_doc(_run(base + ["--debug-checks"])))




def _masked(report: str) -> str:
    """A printed ``--json`` report, the numbers in ``wall_times`` zeroed."""
    head, sep, tail = report.partition('"wall_times": {')
    block, close, rest = tail.partition("}")
    assert sep and close
    return head + sep + re.sub(r": [-+.0-9e]+", ": 0", block) + close + rest


def json_bytes_digests(text: str) -> dict[str, str]:
    """Raw digests of the JSON outputs; runs in the case's own directory so
    that the ``host_file`` the report names is the same on every run."""
    with open("in.edges", "w", encoding="utf-8") as f:
        f.write(text)
    out: dict[str, str] = {}
    for tiebreak in ("lex", "id"):
        base = ["solve", "in.edges", "--json", "--tiebreak", tiebreak]
        out[f"{tiebreak}/report-out"] = _sha(
            _masked(_run(base + ["--out", "host.json"])))
        with open("host.json", encoding="utf-8") as f:
            out[f"{tiebreak}/host-json"] = _sha(f.read())
        out[f"{tiebreak}/report"] = _sha(_masked(_run(base)))
        out[f"{tiebreak}/phase1-report"] = _sha(
            _masked(_run(base + ["--phase1-only"])))
    return out


GOLDEN_JSON: dict[str, dict[str, str]] = {
    'fig': {
        'lex/report-out':
            '4a2cd79612f1c2da93f7a335b03b891e0d435d6127364c4c98b34fa99152051a',
        'lex/host-json':
            'e9aaeaa710559c6c08bc9bc3a452df9d4686c798c789e34d4e50220fd9832098',
        'lex/report':
            '00e7c240c5f157458218557ea01da5887a2076ae91f1dad8be1942ece31372e1',
        'lex/phase1-report':
            '630ddc18baa2aee8014f25a3e56ec3c6bc9fb4f2c7ea859f46428cc5e4b90d95',
        'id/report-out':
            '16f5ea7cd1ac7f04b16f74d8ecd287a4046adcb1a422280644b9cf842d0f85f2',
        'id/host-json':
            'e9aaeaa710559c6c08bc9bc3a452df9d4686c798c789e34d4e50220fd9832098',
        'id/report':
            '1e9a90a56f2bb96511c88c6ed42ec764da89797aad7c9efb39b8ac534248ddef',
        'id/phase1-report':
            '547f549325813db29b6ebb7bf43fcfb0996ae45f333dac60b8ff5ce8cb6bc90d',
    },
    'random-2': {
        'lex/report-out':
            'd0a7547e221e1af8938751f0a4b3eda77d6dcad159f0a005289d676073e83134',
        'lex/host-json':
            '99e5e60bd7eb60594ed5017aa620addffccf445e0d9e268f88a633dafbef002e',
        'lex/report':
            '70ec38b99f66e2022c141dcd023ca4ed89b822a9270c9dcdc2e1d1770b12940c',
        'lex/phase1-report':
            '3afb5e88a1b26688d114e9a016a70962b5d6a1ab368a97cddf7d4f13af4ec622',
        'id/report-out':
            'ef0b10ef81c46eaa77a9786e72d62ef18e9566389fecf9460ecb0d54b360ea3f',
        'id/host-json':
            '99e5e60bd7eb60594ed5017aa620addffccf445e0d9e268f88a633dafbef002e',
        'id/report':
            'd054bbe069fa331d9e58df3dd37a90fc40e44a5c311d577799017328f30a9733',
        'id/phase1-report':
            '50b96d55b4521dc50e77608615e6b3dd90daf15d6deca81888829e4ac569c22a',
    },
    'random-9': {
        'lex/report-out':
            'bdeb4dcad21f96c9337fd19fe8eb3ff71e1c2f0649678342f63dcb237c5d7361',
        'lex/host-json':
            '9a0e87d72362e780df3677e0da1bbbabc5bca284bc762e8cc831ad7b206e5486',
        'lex/report':
            'd0e12cf4e27411f1bb34474e5baa325811cc29223431000e38bfe6a54efd93f7',
        'lex/phase1-report':
            'b2a9c3404615bc48d940499ed71582a46fc2cfd8ba677f60a0c50d9f130f533f',
        'id/report-out':
            'fc6d30572845626bfc47da4c27a3b8704b03145181c8bd9d1d157a0bb39f5b0b',
        'id/host-json':
            'a6269dad5ff6418d1c0162c65db507db9db14b1f3fc61e35906039fcb7021862',
        'id/report':
            'f895bde8440d9680a83245167c9aa32cfce55dc219abd9d85e40c403c09525d5',
        'id/phase1-report':
            '8bcc27526beb879abf93117be8cf8a3ec40783d628b9568304eedb0cc4cf431b',
    },
    'random-1000': {
        'lex/report-out':
            '4b075a49dbd37550e1e463cbc62dde1ed69ae4af7135c2b6bed4e1493ded9081',
        'lex/host-json':
            '5a3d895f2a344ae81bb716704b2a8f7bfe1a5f030f7ce2ec3b69a354676e7d52',
        'lex/report':
            '885f47a953189ae103669c595d7a1c6e9bae96d72b2760b82919bd67a130a20f',
        'lex/phase1-report':
            '38e281f2248603abc7fef5a59cb4569386bb6b917a8103fa17344505dfb63b12',
        'id/report-out':
            'e309c71f2674cda5713dc563e5adb39825499007bbb7fa4a2e9d69faf2484867',
        'id/host-json':
            '902f3c71a097c718b832538636c3277914dbf06cadb1e94277f4c8c49d82a865',
        'id/report':
            'fe119ddaba282151010ae46cd3317327880da6e15f39cf000811ea83c3580e3e',
        'id/phase1-report':
            '31111aa3e207b6c4930f89cf927781e1221005357da0d29ac8fd368aed26e055',
    },
    'random-19999': {
        'lex/report-out':
            '008ee6fa0c6a21b5c8792931ae813f779f8d913a2f6175297384fbf45443af10',
        'lex/host-json':
            '7e7e42472bf7ed6dfd636c12fda13918ae38b31b11a7c85bab5372939de8756b',
        'lex/report':
            'c44549d3455a9f73ec8a3c6c58a0027ca36bd816f5e2fd3e2e651b3201ddd5c6',
        'lex/phase1-report':
            'a86c4a14d05fcc835da3cf75163b9848eec6b1c2631169275e01c733cf1581bd',
        'id/report-out':
            'b5806e3eb00db9ed245c197ae80a15f82b2fb347bc042ee906c649a029ba1c3a',
        'id/host-json':
            'a4d04163dec28e0881c53419249211f68143b7a044e7b0f1779cca79a478157c',
        'id/report':
            '50fc1fa77fabbce8c43c8314c9d89f096b97084212ce725f823c4722b7e9b986',
        'id/phase1-report':
            '7dacb9871de6872a1b91ff1514e42c8546c97d660efbd1c135f6641dbb408aaa',
    },
    'random-20001': {
        'lex/report-out':
            'adf26883a38bc528ea7f8ae154666b1e3a68a8a1b9a3148da9e3bd2892439038',
        'lex/host-json':
            '3741febac0686390ff229dad035caa37aef3e784bb065e1dab0f86a648a42a08',
        'lex/report':
            '74940a3e3354f1131c60725f42ad795521d2b0825c8bcf36c5061f6dc1069fba',
        'lex/phase1-report':
            '4b380824d1a0440838d1dc5eca78f629a198685a89a7a5bdc9cdbb1d9a5d7d01',
        'id/report-out':
            '1903a073a20087c2d0851f35a92e01ac9d7132522dbe25651ea4b84898d4da40',
        'id/host-json':
            '394196bd7ff286fc4e42080e6772c4b7a11e9a78710244fc82a0ee6cdf4d8f35',
        'id/report':
            '5d22fc03e7eb4d5a2f8e37f1cd94328134569d9ad579a271289f7d648adcf0d3',
        'id/phase1-report':
            '050c3bdb9fd6811333e30b1bd2da81171b3abe04b6cd2486bd55abe0a6deea63',
    },
    'star-20001': {
        'lex/report-out':
            'de61ed0737aa75011e6313f4be5142860938b3cb97c0534c66a1262b8d343adf',
        'lex/host-json':
            '13bfab130716cbbce5d2574d37d410685ea45bc4a17ed5c8ce9d034abaebc9da',
        'lex/report':
            '0f0a22e1ba66421dda1ced061b74bd371181b59bb9889f0f5b5a040d5a7c89d3',
        'lex/phase1-report':
            '2d4a8e810df242ec7539c686cc9f1135b48327b20042df4f480cf949c0563dc7',
        'id/report-out':
            'b86c5627878a26c2a25b44811cd6a4ae7b6e4ce2ac91953fe8d9f45d91ffef08',
        'id/host-json':
            '215ec1ea6cdfdfaa3098ffabb56fbf62e9c7b1e4a2a3dcc791704176ec360cc5',
        'id/report':
            '924f8c956eee289b7b73fb5c0a980477513a4516a4223559bb230cdcd518ac55',
        'id/phase1-report':
            '58689a11dd0b97ad7d38556261f5286b199eb1beca907715678c97607c651187',
    },
    'random-50001': {
        'lex/report-out':
            '5a482245fcaa739e222bb164854d1ad104e7e55c2fc1bace87550566e5d9a7ff',
        'lex/host-json':
            'c2956c6f0ec8ca628dce6dc65784c23d65675dca6077dbe7aed2ee9bfde72ce8',
        'lex/report':
            'a6d4da50be98637e12035350b40f7aed87fd4c422ade27a32c8afcdd31c77f36',
        'lex/phase1-report':
            '7b524271d578149add4e51517cd3a31b670b3b65704e12f86cf58ca8bb301863',
        'id/report-out':
            '72b0f6842e651552765ca39d606cd8e6ed589418a751cb8e15881bb7743b0aa5',
        'id/host-json':
            '558402a9e17c6be9f69361298dcc8838d2288d13164a48f072f92ce394abf314',
        'id/report':
            '2980d270507b5b203accbc3276f0ead431a2ab5e6b1e24564a47fa4dd1ea80de',
        'id/phase1-report':
            '3fc4f49f9d459c509fca5288679161efa65893942e15f9fc73195988007770b8',
    },
    'caterpillar-50001': {
        'lex/report-out':
            'a4b037392548b624e1f343211c3fc035840367dae52a2928d21501118f8f3e90',
        'lex/host-json':
            '9ee41a2d5ae1009fe482c7470c40969fa12f70afaf17c131c24b28081b4185cd',
        'lex/report':
            '28d7975fb8c2f7d6f79d6bbe9e65916840b17fc546ee03d23995882a9af3b268',
        'lex/phase1-report':
            '92e0376019c3156969a99e5734c57206fc6010a17278aaa89529dd8ac8310389',
        'id/report-out':
            '93631b5023b5a93eb31ec3cfe26b2d067878251191f5ed9d365b54bfa4263604',
        'id/host-json':
            '9ee41a2d5ae1009fe482c7470c40969fa12f70afaf17c131c24b28081b4185cd',
        'id/report':
            'f070e2f5a791cd6821da5249a08d94de634ac099882c2a36f31ddfba1e6e3e8e',
        'id/phase1-report':
            'ac0e1a2315ddd9df81a7c74f73893d6f27bc81b19cf3b79b84b3b0d5b6a6b0f2',
    },
    'random-120000': {
        'lex/report-out':
            '252bb981836de305000c68f0a07475b3331d6cf4f3307ae03c52f1a03fce8c0d',
        'lex/host-json':
            '4ecf0c66f1d0dc85585e23cce9b69ba7decab284c30ab957161194e65922d421',
        'lex/report':
            'fbed6dd67608d52a91838585206d8371976a46753b167c4acf7511d3d6b3b075',
        'lex/phase1-report':
            'd26651c0536017fb9be79854d97ae5b3c479a107d9f2a10a6c32fe442bda2017',
        'id/report-out':
            '19ef3678b99655ba8684b7ceabee4a460915303134b52599b72d156e1f31b670',
        'id/host-json':
            '516ada170db4286bde79a62809f454ce9d2156f499cc39cb9a3f392ff381f828',
        'id/report':
            '60b1632f08c48230796532e603212c7f8a3d7c244f9c89f86dab38ee0cfd5470',
        'id/phase1-report':
            '0ce2d8239934d0f249486d5e727d6a36c6e734836e7a9e4daffed370d320f836',
    },
}


@pytest.mark.parametrize("name", CASES)
def test_json_bytes(name, fig_text, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = fig_text if name == "fig" else _case_text(name)[0]
    assert json_bytes_digests(text) == GOLDEN_JSON[name]
