"""The one ordered table of end-to-end runs, and its checker.

Each entry is one `soclelab` command line, which is also its name, split
on spaces into the CLI argv.  It may pin the sha256 of its stdout (or of
the file named by `output`), expect an exit code other than 0, carry a
writer that first puts its input files in the working directory, and name
an earlier entry whose stdout (or whose `details[key]`) must be the `same`.

`main` runs the table in process through `cli.main`, in one fresh
temporary directory, so later entries read what earlier ones wrote, and
each input keeps its relative name, which enters the reports.
`tools/unused.py` profiles the same table's CLI calls, not its writers.

Usage: python3 tools/runs.py
Prints one line per mismatch and exits 1 on any; silent and exit 0 when
every run matches.  Stdlib only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from soclelab import cli  # noqa: E402
from soclelab.corpus import ModuleAssembler, iter_generator_modules  # noqa: E402
from soclelab.corpus import random_generator_module, random_split_system  # noqa: E402
from soclelab.gallery import criterion8_algebras, make_matrix_algebra, make_row_diagonal_pair  # noqa: E402
from soclelab.gallery import make_square_zero_extension, make_twisted_truncated  # noqa: E402
from soclelab.gf import field_make  # noqa: E402
from soclelab.modrep import ModuleRep, faithful, minimal_faithful, regular_module  # noqa: E402
from soclelab.strongness import BilinearSystem  # noqa: E402
from soclelab.tensorcover import TensorSubspace  # noqa: E402


@dataclass(frozen=True)
class Run:
    name: str
    sha256: str | None = None
    exit: int = 0
    write: Callable[[], None] | None = None
    output: str | None = None
    same: tuple[str, str | None] | None = None

    @property
    def argv(self) -> list[str]:
        return self.name.split()


def _writes(path: str, build: Callable[[], object], doubled: bool = False) -> Callable[[], None]:
    """A writer of build()'s JSON, or of its direct sum with itself, to path."""
    def write():
        obj = build()
        obj = obj.direct_sum(obj) if doubled else obj
        Path(path).write_text(json.dumps(obj.to_json(), indent=2, sort_keys=True))
    return write


def _full223(rebased: bool = False) -> TensorSubspace:
    """The full 2x2 space over F_3, or the same space with the basis
    (b0+b1, b1, b3, 2b2), not in RREF."""
    full = TensorSubspace.full(field_make(3), 2, 2)
    b = full.basis
    return TensorSubspace(full.field, 2, 2, (b[0].add(b[1]), b[1], b[3], b[2].scale(2))) if rebased else full


def _split_system(q: int, seed: int):
    return lambda: random_split_system(field_make(q), random.Random(seed))


def _transposed(path: str):
    return lambda: BilinearSystem.from_json(json.loads(Path(path).read_text())).transpose()


def _regular_sz(q: int):
    return lambda: regular_module(make_square_zero_extension(field_make(q), 2))


def _natural_m23() -> ModuleRep:
    a = make_matrix_algebra(2, field_make(3))
    return ModuleRep(a, 2, a.matrix_basis)


def _first_kx34() -> ModuleRep:
    return next(m for m in iter_generator_modules(make_twisted_truncated(3, 1, 1), 4) if faithful(m)[0])


def _first_kxy3() -> ModuleRep:
    stream = iter_generator_modules(dict(criterion8_algebras())["kxy2-q2"], 3)
    return next(m for m in stream if faithful(m)[0] and minimal_faithful(m).minimal)


def _random_sz68() -> ModuleRep:
    return random_generator_module(ModuleAssembler(make_square_zero_extension(field_make(2), 2)), 4, random.Random(68))


def _oracle(params: str, path: str, sha256: str) -> list[Run]:
    return [Run(f"gallery make {params} -o {path}"), Run(f"algebra analyze {path} --oracle", sha256)]


RUNS: list[Run] = [
    # paper-5.1 exits 1 by design (small-field counterexamples)
    Run("reproduce all", "65345839d87e20b82f01695ba63c3d2d0c9967302553998b110566ac552d4e57", exit=1,
        output="soclelab-reproduce-all.json"),
    # the radical-agreement battery reaches a ring of 3^10 elements, over the cap
    Run("--budget 5000 reproduce paper-2", exit=3),
    # an unknown target is an input error that names every target, in table order
    Run("reproduce paper-3", "9dbfa6c24e82daeb06648035ea92fcabff6299b045bc9f84826c4bab4e470545", exit=2),
    Run("cover search-minimal --m 2 --n 2 --q 2", "120f98e14509642a24fb04d17b10b8aba0003f32ca7569d8b05384e66b8d2905"),
    Run("cover search-minimal --m 2 --n 2 --q 3", "c4c79d15493ef810a55baa9bce806043ec576561f165744554ddfed6b367319a"),
    Run("cover search-minimal --m 2 --n 3 --q 2", "ef24b20deede4bf8e451db483d0ee2dd4eac7f1d9abcae6982aaa6e362d749e9"),
    Run("cover search-minimal --m 2 --n 2 --q 7", "d3d23ba56b272b80ff86a1e6b96b97b1749b8133a4325c95408f1cf1afd65743"),
    Run("cover search-minimal --m 3 --n 2 --q 2", "9c8115e4c070ec381e5bb4cadc668fb4a996558f7418ef93c2967309bc1e0d3c"),
    # the generic (q > 2) scan beyond 2x2
    Run("cover search-minimal --m 2 --n 3 --q 3", "9a2e53b49e46cbecf901e7b66887b0964a99125ade2e961738275e66d6735f41"),
    # an extension field, and the one-row and one-column shapes
    Run("cover search-minimal --m 2 --n 2 --q 4", "dd3416c0086857f36b4c140e3f55a01db37314a50de99c5540137247f621a3a7"),
    Run("cover search-minimal --m 1 --n 3 --q 3", "39a9f08ff6323ca691b4f40f303376770dfd59c2e7f7c0a7269e009612cdb644"),
    Run("cover search-minimal --m 3 --n 1 --q 2", "5b6fbd81150dc07acf756da123e13aba5745888ef753601247e5e848d3aec547"),
    Run("--timing cover search-minimal --m 2 --n 2 --q 2"),
    # an empty factor, and an input file that cannot be read (a directory), are input errors
    Run("cover search-minimal --m 0 --n 2 --q 2", exit=2),
    Run("cover search-minimal --m 2 --n 0 --q 2", exit=2),
    Run("cover check .", exit=2),
    # the cross is minimal; the corner and the full 2x2 space over F_3 are
    # not, and report a hyperplane satisfying both conditions, for
    # full223r.json the RREF one all the same
    Run("gallery make cross -o cross.json"),
    Run("gallery make corner -o corner.json"),
    Run("cover check cross.json --minimal", "785fd5e3d9b81eab06f421edbf975b902e18c247611b40cf439782863e640121"),
    Run("--pretty cover check cross.json --minimal"),
    Run("cover check corner.json --minimal", "d9072eb314848cd77859195d4293aac3b55f06a51a908218e6bbf0e6a9d0ed21"),
    Run("cover check corner.json"),
    Run("cover check full223.json --minimal", "0bcf48197dc5ce03756f47216f9983cd0b5d8560cebf4c44f27131a75e41362c",
        write=_writes("full223.json", _full223)),
    Run("cover check full223r.json --minimal", "a3c722ee6cd87189c505d864728ec47522cb5e00b3d9dd8b5df0743007ed231f",
        write=_writes("full223r.json", lambda: _full223(rebased=True))),
    # a capped cover check stops at the charge for the projective points of its two sides
    Run("--budget 0 cover check cross.json", "5ed44d6d7ff21204e6fec815420cc824fcfa3849effe3386f8b5c05685a2e327", exit=3),
    # gallery list, and each item at its defaults; the stub needs characteristic zero
    Run("gallery list", "66c00612d24e1ae4ec689af861708b51be05255630477d6b8e2ecd9d2c680a0f"),
    Run("gallery make cross", "a6b7b3eb41a41879318bac08ceb094a9d82e9dae1a881abd7bb8fbc8a2059430"),
    Run("gallery make corner", "653c67e822bfbabde119703b3ca2e28eed6ebc0ec01a44197e15806e2666fd7a"),
    Run("gallery make triangular", "0b5d97e6d28cc8a932580da637a1c459f74c608442684a740643190611433336"),
    Run("gallery make matrix-algebra", "2793b147df2198a07dd28aeda6ed26c01260ce8367209e3cfa4e9454d6c42c62"),
    Run("gallery make square-zero-extension", "3abee273209941abe531133d0713c6ca0be5aa529e7c73d21a4f1a220d1f60f7"),
    Run("gallery make twisted-truncated", "43a83e3bcc5ca183ffa46673d686f35651ee03f281620e5597c399ca9cceb1e4"),
    Run("gallery make line-cover-system", "6cb2bd9b9e3a8149a71211d552314eeec69f125fdc4d1c93cba55227510bbbe9"),
    Run("gallery make row-diagonal-module", "d3b7466a6556e907da8d54b4c181f0bd8f659a74718e6442cc7f4a96e641bc18"),
    Run("gallery make number-field-example", exit=2),
    # the radical oracle over F_3, F_2 and F_4: both bit-packed fields and an
    # extension field.  tt224.json is 10-dimensional with no matrix basis, so
    # each regular-representation matrix packs into a word wider than 64 bits;
    # tt323.json's coset visit adds six radical basis vectors, narrowing its
    # codes by one digit each.  The unit scan masks block-triangular matrices
    # to their diagonal blocks: m23.json has no cut and runs unmasked, t35.json
    # has cuts and runs the list path of F_5, and tri5.json the generic sweep
    *_oracle("triangular n=4 q=3 scalar=false", "t43.json",
             "0673eb23a6e59db40eaa800b8495f82563e51cded7ce9498640b1ba15bde51d8"),
    *_oracle("triangular n=3 q=2 scalar=false", "t32.json",
             "20e9c3fe03bc08d45e794eaa5bd44e8c9d5c192f068e011737baaab6be7259a4"),
    *_oracle("square-zero-extension q=4 g=2", "sz42.json",
             "ea73411dda598dbbd7e52193db9c82844a7f333afa165f4676571c4e157b7666"),
    *_oracle("twisted-truncated p=2 d=2 n=4", "tt224.json",
             "319151e416087e1e7413bd32ea6eec3a4f8e0c21f1359a4ec8dac22fe06ad7a0"),
    *_oracle("twisted-truncated p=3 d=2 n=3", "tt323.json",
             "1702da441932700b51620c17d259d9d1f5a0f4abca7339c88d3721eb527a769d"),
    *_oracle("matrix-algebra n=2 q=3", "m23.json", "b2fa53fd2d995919d71aff25fcb2ec948a7fd0ba8a87b62658d9727d54ef4ee0"),
    *_oracle("triangular n=3 q=5 scalar=false", "t35.json",
             "e4ede6022a9cf4b3f335949d10765b663940c2e9e0c99b17329f1eddaa1c1bae"),
    Run("gallery make triangular n=2 q=5 -o tri5.json"),
    Run("algebra analyze tri5.json --oracle"),
    Run("algebra analyze t32.json"),
    # the line-cover systems decide the swap conditions under the default
    # budget (7 and 15 tuples of corner subspaces) and fail the inequality;
    # rs3.json has an n = 2 codomain block, so T a S is larger than span(a),
    # and holds it after 29 tuples
    Run("gallery make line-cover-system q=2 d=2 -o lc2.json"),
    Run("system check lc2.json", "4fe650cc73e5e9bbb5b968f2b4db1c1c29edf6524633b9d1c7c31607922b7e52", exit=1),
    Run("gallery make line-cover-system q=3 d=2 -o lc3.json"),
    Run("system check lc3.json", "0ffa3f73150fc2684dbef9182aabffade9ceb3e3a2b378a967ab26df89ad0c6f", exit=1),
    Run("system check rs3.json", "2b939ddf7c5e8525bd450782cbd6ebe3c54711d34cf2af46a1fa5f1a48fea51d",
        write=_writes("rs3.json", _split_system(3, 21))),
    # rdm.json is the bare module of the gallery's {"algebra", "module"} file rd.json
    Run("module shrink rdm.json --mode sub", "fb8c1104e0da5fb26a43eed901156f9eaa5d9199bfc836962675d55af9ed000b",
        write=_writes("rdm.json", lambda: make_row_diagonal_pair()[1])),
    Run("module shrink rdm.json --mode quot", "c842dfadeffe13dc2d8759ff8875089bdef0f2663b5e1cc984490d52b642eadb"),
    Run("module shrink rdm.json --mode subfactor", "671a6a78ee794d31a96b09398332f2fe28f9e6bdb4ffccacc146c953dfa95030"),
    Run("gallery make row-diagonal-module -o rd.json"),
    Run("module shrink rd.json --mode subfactor"),
    # the right side names a domain block: line-cover-system has four
    Run("system strong lc3.json --side left --N 1", "f0818241222013ebc2abaf3d4fbf4757ef250c3d1440c447ee854448c29e7d8d"),
    Run("system strong lc3.json --side right --N 1 --block ,0",
        "c9687ca57360560756a94aadb1feb5fe4be2e19c3864fb560f9259bb3051dfa8"),
    # the corner 0 A 2 is not 1-strong, plain or --relative (W_02 is one line,
    # so only one simple submodule receives a map); the block row 0 A is, under --relative
    Run("system strong lc3.json --side left --N 1 --block 0,2",
        "f85474f8e56f77806cee30af7626d577bf6f4e849f26d577b0a4ef3539914a4b", exit=1),
    Run("system strong lc3.json --side left --N 1 --block 0 --relative",
        "a098b0d77c99b93ef9af3230f1130d4527398b902bdaaf29da2d46b169b0eece"),
    Run("system strong lc3.json --side left --N 1 --block 0,2 --relative",
        "552f35dff982d4328de321b4990381fa3f1f205c7d6978ae4560ae26791be633", exit=1),
    Run("system strong lc2.json --side left --N 1 --relative"),
    # a 3-dimensional codomain block: relative strength recurses through
    # subspaces of dimension 2, and its memo and containment skip both fire
    Run("gallery make line-cover-system q=2 d=3 -o lc23.json"),
    Run("system strong lc23.json --side left --N 2 --relative",
        "f28882368dfe4fc5e12b0cbf245cc92b2c006d1c1dd2e74cca5646efdd969d3b"),
    Run("system strong lc23.json --side left --N 3 --relative",
        "9c5663699f9f683d97ec7d56731c3d0b97697052869c1708fa512e89fee0f4ad", exit=1),
    Run("strong lc2.json --side right --N 2 --block ,0"),
    # seeded random split systems with n = 2 blocks whose N = 2 failure has a 2-member witness family
    Run("system strong rs2.json --side right --N 2 --block ,1",
        "594ed08555b1942c1a709e2f5442b7603e1734d6d784620ac6a871789dcb85cc", exit=1,
        write=_writes("rs2.json", _split_system(2, 48))),
    Run("system strong rs3b.json --side left --N 2 --block 1",
        "befc1faaaae8dee52d7773c4f0e14817a2580b47d7ced77275cb2b37ecbc7707", exit=1,
        write=_writes("rs3b.json", _split_system(3, 115))),
    # left strength on a block is right strength on the same block of the
    # transpose (T, S, A^T): the same exit and the same "strong"
    Run("system strong lc3t.json --side right --N 1", "84bb08e5d949e680a126a75a547ed3a8f4b597ed57e43debd6d7af168276b639",
        write=_writes("lc3t.json", _transposed("lc3.json")), same=("system strong lc3.json --side left --N 1", "strong")),
    Run("system strong rs2t.json --side left --N 2 --block 1",
        "3be92aabe11baba944a33e65cd2ee31d25d393d533b7a204af7ec84aee773d20", exit=1,
        write=_writes("rs2t.json", _transposed("rs2.json")),
        same=("system strong rs2.json --side right --N 2 --block ,1", "strong")),
    # a capped left-strength run stops at the family charge, naming the site
    # and the amount: "left-strong family enumeration: needs 200"
    Run("--budget 0 system strong lc3.json --side left --N 1",
        "227bffa15fa3ccbc7adc1e6df258379e6e19cb14a2b60816079b1ab356798678", exit=3),
    # rdm.json is minimal and fails the block-graph bound over F_2; its direct
    # sum rd2.json is faithful, not minimal, and each shrink mode steps down to
    # a 5-dimensional faithful module
    Run("module check rdm.json", "0f5009169fc44d12a6910782592b4d96e701422286f7dcbbac045188031e7d88", exit=1),
    Run("module check rd2.json", "45865bb0d2c2713ec304bd19aefc164579469ba793ad10dc70e87da9d328af59",
        write=_writes("rd2.json", lambda: make_row_diagonal_pair()[1], doubled=True)),
    Run("module check rd.json", exit=1),
    Run("module shrink rd2.json --mode sub", "731fc8b4e9ad6d69e99180926d16264bdaf7343733817a1955e47890c8351fe8"),
    Run("module shrink rd2.json --mode quot", "10bc91105e2c8c6a06d9159b1d2e7cdaaea1b34be5fbdc76ed39bc0e43afb3f5"),
    Run("module shrink rd2.json --mode subfactor", "1d3ea5a3cacd5edb8ef6da326938d19f41b1b40bcfc257632a7ecfe2c7ca416d"),
    # the regular module of square-zero-extension q=2 g=2, a local algebra:
    # doubled it is faithful and not minimal; alone it is minimal with central
    # socle, so the report takes the local bound
    Run("gallery make square-zero-extension q=2 g=2 -o sz.json"),
    Run("module check sz2.json", "87067ba285d0a4f0a20b9a2feb5fef6bb75951d7898f8cf93539074572447afb",
        write=_writes("sz2.json", _regular_sz(2), doubled=True)),
    Run("module check szr.json", "a7d172bf775462abb6d5b57e0adea8381ba47222625d9fd9213437b2b90b843c",
        write=_writes("szr.json", _regular_sz(2))),
    # over F_5, where the relation checks take the generic zero-product path of Mat.mul_is_zero
    Run("module check sz52.json", "07c1c3698e00888e41719b49768846b4a42dec4cbe24aff42ded4a007664db4b",
        write=_writes("sz52.json", _regular_sz(5))),
    Run("module check sz52d.json", "bc103e694491f3ba58407f33babf22c3e968c8dead04f78760a7c9712ccd58ec",
        write=_writes("sz52d.json", _regular_sz(5), doubled=True)),
    # the natural module R·E_00 of M_2(F_3): simple, so minimal; its n = 2
    # block runs the summand path of the induced system, and the graph bound
    # holds with equality
    Run("module check ma2.json", "878dec46217dc9fb884355b9a030ebddaff0aa46d800dbe40e1f227c38e5680e",
        write=_writes("ma2.json", _natural_m23)),
    # the first faithful 4-dimensional module of F_3[x]/(x^2) in the exhaustive
    # stream, and the first faithful minimal 3-dimensional one of
    # F_2[x,y]/(x,y)^2: local, so each top is one identity block
    Run("module check kx34.json", "33bb0053c30a0532dc4387fed03db0980182d9b47f13f89df4dd21c23a83d784",
        write=_writes("kx34.json", _first_kx34)),
    Run("module check kxy3.json", "9399ed8c12d16a06e686f9ff2fd828f13b5d97b4e57c4dd6dbc4724298df52a6",
        write=_writes("kxy3.json", _first_kxy3)),
    # a seeded random module over square-zero-extension q=2 g=2: its quotient
    # shrink reads only the socle points, never the top's 7 hyperplanes, so
    # under --budget 3 it passes with the uncapped stdout
    Run("module shrink sz68.json --mode quot", write=_writes("sz68.json", _random_sz68)),
    Run("--budget 3 module shrink sz68.json --mode quot",
        "897384a23a8a51cb9a4aec82ee7fabc6ec7181fc77413d3ef4551021cda237fd",
        same=("module shrink sz68.json --mode quot", None)),
]


def execute(table: list[Run], wrap=contextlib.nullcontext) -> list[tuple[Run, int, bytes]]:
    """(entry, exit code, output bytes) for each entry in order; each CLI
    call runs inside wrap(), after its writer, with stdout and stderr captured."""
    here = os.getcwd()
    results = []
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("SOCLELAB_BUDGET", None)  # the pins are of the default budget
        os.chdir(tmp)
        try:
            for run in table:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    if run.write is not None:
                        run.write()
                    with wrap():
                        try:
                            code = cli.main(run.argv)
                        except SystemExit as exc:  # argparse rejected the argv
                            code = exc.code
                output = out.getvalue().encode()
                if run.output is not None:
                    output = Path(run.output).read_bytes() if Path(run.output).is_file() else b""
                results.append((run, code, output))
        finally:
            os.chdir(here)
    return results


def _part(output: bytes, key: str | None):
    return output if key is None else json.loads(output)["details"].get(key)


def mismatches(results: list[tuple[Run, int, bytes]]) -> list[str]:
    """One line for each exit code, pinned sha256 or `same` part that the
    table does not expect."""
    outputs: dict[str, bytes] = {}
    lines = []
    for run, code, output in results:
        outputs[run.name] = output
        if code != run.exit:
            lines.append(f"{run.name}: exit {code}, expected {run.exit}")
        digest = hashlib.sha256(output).hexdigest()
        if run.sha256 is not None and digest != run.sha256:
            lines.append(f"{run.name}: sha256 {digest}, pinned {run.sha256}")
        if run.same is not None and _part(outputs[run.same[0]], run.same[1]) != _part(output, run.same[1]):
            lines.append(f"{run.name}: {run.same[1] or 'stdout'} differs from that of {run.same[0]}")
    return lines


def main(table: list[Run] = RUNS) -> int:
    lines = mismatches(execute(table))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
