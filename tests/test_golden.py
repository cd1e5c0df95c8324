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
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import pytest

from treehost import gen
from treehost.cli import main

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
             else (labels[v], labels[u]) for u, v in tree.edges()]
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


