"""Golden tests for the HQ boundary table and predicates.

Each rule gets a known-bad snippet that must fire and a clean twin that
must not, written under the ``src/repro/...`` path whose module the rule
governs (:func:`repro.analysis.boundaries.lint_file` places a file by
that path).  Style rules are ruff's, not this suite's.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.boundaries import BOUNDARIES, PREDICATES, lint_file

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _write(tmp_path: Path, relative: str, source: str) -> Path:
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def run_lint(path: Path) -> list:
    return lint_file(path)


def lint_codes(path: Path) -> set[str]:
    return {finding.code for finding in run_lint(path)}


class TestRegistry:
    def test_rules_discovered(self):
        codes = {row.code for row in BOUNDARIES} | {
            code for code, __ in PREDICATES
        }
        assert codes == {
            "HQ001", "HQ002", "HQ003", "HQ004", "HQ005", "HQ006", "HQ007",
            "HQ008", "HQ009", "HQ010", "HQ011", "HQ012",
        }

    def test_every_row_has_a_reason_and_one_module_set(self):
        for row in BOUNDARIES:
            assert row.kind in ("call", "construct", "import"), row
            assert row.reason, row
            assert not (row.allowed and row.denied), row


class TestHQ001PipelineLayering:
    BAD = """\
        from repro.core.algebrizer.binder import Binder

        def bind(mdi, tree):
            return Binder(mdi).bind(tree)
    """

    def test_binder_construction_fires_outside_the_pipeline(self, tmp_path):
        path = _write(tmp_path, "src/repro/server/x.py", self.BAD)
        assert "HQ001" in lint_codes(path)

    def test_module_alias_is_resolved(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/core/x.py",
            """\
            from repro.core import serializer as ser

            def render(op):
                return ser.Serializer().serialize(op)
            """,
        )
        assert "HQ001" in lint_codes(path)

    def test_pipeline_may_construct(self, tmp_path):
        path = _write(tmp_path, "src/repro/core/pipeline.py", self.BAD)
        assert "HQ001" not in lint_codes(path)


class TestHQ002SilentSwallow:
    BAD = """\
        try:
            pass
        except Exception:
            pass
    """

    def test_fires_in_core(self, tmp_path):
        path = _write(tmp_path, "src/repro/core/x.py", self.BAD)
        findings = run_lint(path)
        assert any(f.code == "HQ002" for f in findings)

    def test_fires_in_server(self, tmp_path):
        path = _write(tmp_path, "src/repro/server/x.py", self.BAD)
        assert "HQ002" in lint_codes(path)

    def test_silent_outside_the_layered_dirs(self, tmp_path):
        path = _write(tmp_path, "src/repro/qlang/x.py", self.BAD)
        assert "HQ002" not in lint_codes(path)

    def test_narrow_handlers_allowed(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/core/y.py",
            """\
            try:
                pass
            except OSError:
                pass
            """,
        )
        assert "HQ002" not in lint_codes(path)

    def test_logged_handlers_allowed(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/core/z.py",
            """\
            try:
                pass
            except Exception as exc:
                log.warning("boom", error=str(exc))
            """,
        )
        assert "HQ002" not in lint_codes(path)

    @pytest.mark.parametrize("clause", ["BaseException", "(OSError, Exception)"])
    def test_broad_variants_fire(self, tmp_path, clause):
        path = _write(
            tmp_path,
            "src/repro/core/w.py",
            f"""\
            try:
                pass
            except {clause}:
                pass
            """,
        )
        assert "HQ002" in lint_codes(path)


class TestHQ003MetricRegistry:
    def test_undeclared_name_fires(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/core/m.py",
            """\
            from repro.obs import metrics

            X = metrics.counter("totally_new_metric_total", "nope")
            """,
        )
        findings = [f for f in run_lint(path) if f.code == "HQ003"]
        assert findings
        assert "totally_new_metric_total" in findings[0].message

    def test_declared_name_is_clean(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/core/m2.py",
            """\
            from repro.obs import metrics

            X = metrics.counter("hyperq_runs_total", "declared")
            """,
        )
        assert "HQ003" not in lint_codes(path)

    def test_non_literal_name_fires(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/core/m3.py",
            """\
            from repro.obs import metrics

            NAME = "hyperq_runs_total"
            X = metrics.counter(NAME, "unverifiable")
            """,
        )
        assert "HQ003" in lint_codes(path)

    def test_tests_exempt(self, tmp_path):
        path = _write(
            tmp_path,
            "tests/t.py",
            """\
            from repro.obs import metrics

            X = metrics.counter("ad_hoc_test_metric", "fine in tests")
            """,
        )
        assert "HQ003" not in lint_codes(path)

    def test_every_declared_metric_is_real(self):
        """The registry itself stays in sync: every name declared in
        obs/names.py is actually minted somewhere under src/."""
        sys.path.insert(0, str(REPO_ROOT / "src"))
        try:
            from repro.obs.names import ALL_METRIC_NAMES
        finally:
            sys.path.pop(0)
        source = "\n".join(
            path.read_text()
            for path in (REPO_ROOT / "src").rglob("*.py")
            if path.name != "names.py"
        )
        unused = [
            name for name in ALL_METRIC_NAMES if f'"{name}"' not in source
        ]
        assert unused == [], f"declared but never minted: {unused}"


class TestHQ004HardcodedBlocking:
    def test_literal_settimeout_fires(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/server/x.py",
            """\
            def connect(sock):
                sock.settimeout(10.0)
            """,
        )
        assert "HQ004" in lint_codes(path)

    def test_literal_create_connection_timeout_fires(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/server/y.py",
            """\
            import socket

            def connect(host, port):
                return socket.create_connection((host, port), timeout=5)
            """,
        )
        assert "HQ004" in lint_codes(path)

    def test_time_sleep_fires(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/core/z.py",
            """\
            import time

            def wait():
                time.sleep(0.5)
            """,
        )
        assert "HQ004" in lint_codes(path)

    def test_config_driven_timeout_is_clean(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/server/ok.py",
            """\
            POLL_INTERVAL = 0.2

            def connect(sock, config):
                sock.settimeout(config.read_timeout)
                sock.settimeout(POLL_INTERVAL)
            """,
        )
        assert "HQ004" not in lint_codes(path)

    def test_wlm_layer_is_exempt(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/wlm/backoff.py",
            """\
            import time

            def backoff():
                time.sleep(0.05)
            """,
        )
        assert "HQ004" not in lint_codes(path)

    def test_tests_are_exempt(self, tmp_path):
        path = _write(
            tmp_path,
            "tests/server/t.py",
            """\
            import time

            def slow():
                time.sleep(1.0)
            """,
        )
        assert "HQ004" not in lint_codes(path)

    def test_noqa_suppresses(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/server/n.py",
            """\
            def connect(sock):
                sock.settimeout(10.0)  # hq: allow(HQ004) golden
            """,
        )
        assert "HQ004" not in lint_codes(path)

    def test_pragma_without_a_reason_does_not_suppress(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/server/b.py",
            """\
            def connect(sock):
                sock.settimeout(10.0)  # hq: allow(HQ004)
            """,
        )
        assert "HQ004" in lint_codes(path)

    def test_aliased_sleep_fires(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/core/a.py",
            """\
            from time import sleep as pause

            def wait():
                pause(0.5)
            """,
        )
        assert "HQ004" in lint_codes(path)


class TestHQ005BatchedWireSerialization:
    PACK_LOOP = """\
        import struct

        def encode(items):
            out = []
            for item in items:
                out.append(struct.pack("<q", item))
            return b"".join(out)
    """
    BYTES_ACCUMULATION = """\
        def frame(rows):
            body = b""
            for row in rows:
                body += row.encode("utf-8") + b"\\x00"
            return body
    """

    def test_pack_loop_fires_in_pgwire(self, tmp_path):
        path = _write(tmp_path, "src/repro/pgwire/x.py", self.PACK_LOOP)
        assert "HQ005" in lint_codes(path)

    def test_pack_loop_fires_in_qipc(self, tmp_path):
        path = _write(tmp_path, "src/repro/qipc/x.py", self.PACK_LOOP)
        assert "HQ005" in lint_codes(path)

    def test_pack_genexpr_fires(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/qipc/g.py",
            """\
            import struct

            def encode(items):
                return b"".join(struct.pack("<q", i) for i in items)
            """,
        )
        assert "HQ005" in lint_codes(path)

    def test_bytes_accumulation_fires(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/pgwire/a.py", self.BYTES_ACCUMULATION
        )
        assert "HQ005" in lint_codes(path)

    def test_kernels_module_is_exempt(self, tmp_path):
        path = _write(tmp_path, "src/repro/qipc/kernels.py", self.PACK_LOOP)
        assert "HQ005" not in lint_codes(path)

    def test_other_layers_are_exempt(self, tmp_path):
        path = _write(tmp_path, "src/repro/qlang/x.py", self.PACK_LOOP)
        assert "HQ005" not in lint_codes(path)

    def test_single_pack_outside_a_loop_is_clean(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/qipc/ok.py",
            """\
            import struct

            def encode(items):
                return struct.pack(f"<{len(items)}q", *items)
            """,
        )
        assert "HQ005" not in lint_codes(path)

    def test_integer_accumulation_in_loop_is_clean(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/pgwire/c.py",
            """\
            def total(rows):
                n = 0
                for row in rows:
                    n += len(row)
                return n
            """,
        )
        assert "HQ005" not in lint_codes(path)

    def test_noqa_suppresses(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/qipc/n.py",
            """\
            import struct

            def encode(items):
                out = []
                for item in items:
                    out.append(struct.pack("<q", item))  # hq: allow(HQ005) golden
                return b"".join(out)
            """,
        )
        assert "HQ005" not in lint_codes(path)


class TestHQ006EventLoopBlocking:
    def test_socket_recv_fires_in_protocol_module(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/server/endpoint.py",
            """\
            def pump(conn):
                return conn.recv(4096)
            """,
        )
        assert "HQ006" in lint_codes(path)

    def test_blocking_accept_fires_in_protocol_module(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/server/pgserver.py",
            """\
            def serve(sock):
                conn, addr = sock.accept()
                return conn
            """,
        )
        assert "HQ006" in lint_codes(path)

    def test_time_sleep_fires_in_reactor(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/server/reactor.py",
            """\
            import time

            def wait(interval):
                time.sleep(interval)
            """,
        )
        # fires both as hard-coded blocking (HQ004) and as blocking on
        # the event-loop thread (HQ006)
        assert "HQ006" in lint_codes(path)

    def test_sendall_fires_in_reactor(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/server/reactor.py",
            """\
            def flush(sock, data):
                sock.sendall(data)
            """,
        )
        assert "HQ006" in lint_codes(path)

    def test_nonblocking_recv_allowed_in_reactor(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/server/reactor.py",
            """\
            def on_readable(sock, size):
                return sock.recv(size)
            """,
        )
        assert "HQ006" not in lint_codes(path)

    def test_worker_boundary_modules_exempt(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/server/gateway.py",
            """\
            def fetch(sock, n):
                return sock.recv(n)
            """,
        )
        assert "HQ006" not in lint_codes(path)

    def test_noqa_suppresses(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/server/endpoint.py",
            """\
            def pump(conn):
                return conn.recv(4096)  # hq: allow(HQ006) golden
            """,
        )
        assert "HQ006" not in lint_codes(path)

    def test_aliased_sleep_fires_in_reactor(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/server/reactor.py",
            """\
            from time import sleep

            def wait(interval):
                sleep(interval)
            """,
        )
        assert "HQ006" in lint_codes(path)


class TestHQ007ShardRouting:
    ROUTING_CALL = """\
        def dispatch(pmap, table, value):
            return pmap.shard_for(table, value)
    """
    TOPOLOGY_IMPORT = """\
        from repro.core.metadata import PartitionMap

        PartitionMap
    """

    def test_routing_call_fires_outside_the_homes(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/server/x.py", self.ROUTING_CALL
        )
        findings = [f for f in run_lint(path) if f.code == "HQ007"]
        assert findings
        assert "shard_for" in findings[0].message

    def test_route_rows_fires_in_loader(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/workload/loader.py",
            """\
            def load(pmap, table, columns, rows):
                return pmap.route_rows(table, columns, rows)
            """,
        )
        assert "HQ007" in lint_codes(path)

    def test_topology_import_fires_outside_the_homes(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/server/y.py", self.TOPOLOGY_IMPORT
        )
        assert "HQ007" in lint_codes(path)

    def test_sharded_backend_may_route(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/core/sharded.py", self.ROUTING_CALL
        )
        assert "HQ007" not in lint_codes(path)

    def test_distribute_pass_may_route(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/core/xformer/distributed.py",
            self.ROUTING_CALL,
        )
        assert "HQ007" not in lint_codes(path)

    def test_topology_declaration_module_may_import_but_not_route(
        self, tmp_path
    ):
        clean = _write(
            tmp_path, "src/repro/workload/sharding.py", self.TOPOLOGY_IMPORT
        )
        assert "HQ007" not in lint_codes(clean)
        routing = _write(
            tmp_path, "src/repro/workload/sharding2.py", self.ROUTING_CALL
        )
        assert "HQ007" in lint_codes(routing)

    def test_tests_are_exempt(self, tmp_path):
        path = _write(tmp_path, "tests/core/t.py", self.ROUTING_CALL)
        assert "HQ007" not in lint_codes(path)

    def test_noqa_suppresses(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/server/n.py",
            """\
            def dispatch(pmap, table, value):
                return pmap.shard_for(table, value)  # hq: allow(HQ007) golden
            """,
        )
        assert "HQ007" not in lint_codes(path)


class TestHQ009ExecutorChokePoint:
    BYPASS = """\
    class HyperQSession:
        def tables(self):
            return self.backend.run_sql("SELECT 1")
    """

    def test_fires_in_session(self, tmp_path):
        path = _write(tmp_path, "src/repro/core/session.py", self.BYPASS)
        assert "HQ009" in lint_codes(path)

    def test_fires_in_crosscompiler(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/core/crosscompiler.py", self.BYPASS
        )
        assert "HQ009" in lint_codes(path)

    def test_fires_in_admin_registry(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/core/admin.py",
            """\
            def _tables(session, scope, arg):
                return session.backend.run_sql("SELECT 1")
            """,
        )
        assert "HQ009" in lint_codes(path)

    def test_executor_calls_allowed(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/core/session.py",
            """\
            class HyperQSession:
                def tables(self):
                    return self.executor.run_sql("SELECT 1")
            """,
        )
        assert "HQ009" not in lint_codes(path)

    def test_other_modules_exempt(self, tmp_path):
        # the executor itself (and backends, sharding...) own the call
        path = _write(tmp_path, "src/repro/cache/executor.py", self.BYPASS)
        assert "HQ009" not in lint_codes(path)

    def test_noqa_suppresses(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/core/session.py",
            """\
            class HyperQSession:
                def tables(self):
                    return self.backend.run_sql("SELECT 1")  # hq: allow(HQ009) golden
            """,
        )
        assert "HQ009" not in lint_codes(path)


class TestHQ010ProcessSpawn:
    def test_subprocess_import_fires_outside_homes(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/core/backends.py",
            "import subprocess\n",
        )
        assert "HQ010" in lint_codes(path)

    def test_multiprocessing_from_import_fires(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/server/reactor.py",
            "from multiprocessing import Process\n",
        )
        assert "HQ010" in lint_codes(path)

    def test_os_fork_call_fires(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/server/gateway.py",
            """\
            import os

            def daemonize():
                return os.fork()
            """,
        )
        assert "HQ010" in lint_codes(path)

    def test_from_os_import_fork_fires(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/core/platform.py",
            "from os import fork\n",
        )
        assert "HQ010" in lint_codes(path)

    def test_procshard_home_exempt(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/core/procshard.py",
            "import subprocess\nproc = subprocess.Popen(['true'])\n",
        )
        assert "HQ010" not in lint_codes(path)

    def test_server_modules_not_exempt(self, tmp_path):
        # the shard worker lives in procshard.py, so no server module
        # is a spawning home
        path = _write(
            tmp_path, "src/repro/server/shardworker.py",
            "import multiprocessing\n",
        )
        assert "HQ010" in lint_codes(path)

    def test_outside_src_exempt(self, tmp_path):
        # scripts and tests spawn freely (concheck's own test shells out)
        path = _write(tmp_path, "scripts/tool.py", "import subprocess\n")
        assert "HQ010" not in lint_codes(path)

    def test_benign_os_calls_allowed(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/core/backends.py",
            "import os\npid = os.getpid()\npath = os.environ.get('X')\n",
        )
        assert "HQ010" not in lint_codes(path)

    def test_noqa_suppresses(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/core/backends.py",
            "import subprocess  # hq: allow(HQ010) golden\n",
        )
        assert "HQ010" not in lint_codes(path)

    def test_aliased_os_spawn_fires(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/core/backends.py",
            """\
            import os as _os

            def replace_self(argv):
                _os.execv(argv[0], argv)
            """,
        )
        assert "HQ010" in lint_codes(path)


class TestHQ011BillingClassOwner:
    @pytest.mark.parametrize("source", [
        "from repro.wlm.classifier import QueryClass\n",
        "from repro.wlm import QueryClass\n",
        "from repro.wlm import classify_statement\n",
        "import repro.wlm.classifier\n",
    ])
    def test_fires_outside_the_owner(self, tmp_path, source):
        path = _write(tmp_path, "src/repro/cache/executor.py", source)
        assert "HQ011" in lint_codes(path)

    def test_fires_in_pipeline(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/core/pipeline.py",
            "from repro.wlm.classifier import classify_statement\n",
        )
        assert "HQ011" in lint_codes(path)

    def test_session_and_wlm_allowed(self, tmp_path):
        for module in ("src/repro/core/session.py", "src/repro/wlm/admission.py"):
            path = _write(
                tmp_path, module,
                "from repro.wlm import QueryClass, classify_program\n",
            )
            assert "HQ011" not in lint_codes(path)

    def test_rest_of_wlm_free(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/core/pipeline.py",
            "from repro.wlm import WorkloadManager, request_scope\n",
        )
        assert "HQ011" not in lint_codes(path)


class TestHQ012OneTypeTable:
    KEYED = """\
        from repro.qlang.qtypes import QType

        WIDTHS = {QType.SHORT: 2, QType.INT: 4, QType.LONG: 8}
    """
    VALUED = """\
        from repro.qlang import qtypes

        BY_NAME = {"h": qtypes.QType.SHORT, "i": qtypes.QType.INT,
                   "j": qtypes.QType.LONG}
    """

    @pytest.mark.parametrize("source", [KEYED, VALUED], ids=["keys", "values"])
    def test_table_fires_outside_qtypes(self, tmp_path, source):
        path = _write(tmp_path, "src/repro/qipc/widths.py", source)
        assert "HQ012" in lint_codes(path)

    def test_qtypes_is_the_home(self, tmp_path):
        path = _write(tmp_path, "src/repro/qlang/qtypes.py", self.KEYED)
        assert "HQ012" not in lint_codes(path)

    def test_two_entries_and_descriptor_reads_are_clean(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/qipc/ok.py",
            """\
            from repro.qlang.qtypes import QType

            TEXT = {QType.SYMBOL: "s", QType.CHAR: "c"}

            def width(qtype):
                return qtype.spec.width
            """,
        )
        assert "HQ012" not in lint_codes(path)


class TestHQ008LockFactory:
    def test_raw_lock_fires(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/cache/x.py",
            "import threading\n\nLOCK = threading.RLock()\n",
        )
        assert "HQ008" in lint_codes(path)

    def test_aliased_module_lock_fires(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/cache/y.py",
            "import threading as th\n\nLOCK = th.Lock()\n",
        )
        assert "HQ008" in lint_codes(path)

    def test_factory_and_unordered_primitives_are_clean(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/cache/z.py",
            """\
            import threading

            from repro.analysis.concurrency.locks import make_lock

            LOCK = make_lock("cache.z")
            DONE = threading.Event()
            """,
        )
        assert "HQ008" not in lint_codes(path)

    def test_locks_module_is_the_home(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/analysis/concurrency/locks.py",
            "import threading\n\nLOCK = threading.Condition()\n",
        )
        assert "HQ008" not in lint_codes(path)


class TestDriver:
    def test_syntax_error_reported_as_e999(self, tmp_path):
        path = _write(tmp_path, "broken.py", "def f(:\n")
        findings = run_lint(path)
        assert any(f.code == "E999" for f in findings)

    def test_repo_is_clean(self, tmp_path):
        """The gate the CI static-analysis job enforces, from inside the
        suite: zero HQ and CC findings over the real tree."""
        report = tmp_path / "concheck.json"
        result = subprocess.run(
            [
                sys.executable, str(REPO_ROOT / "scripts" / "concheck.py"),
                "--output", str(report),
            ],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 finding(s)" in result.stdout, result.stdout
