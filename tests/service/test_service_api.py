"""The HTTP/WebSocket API surface: routes, validation, error envelopes."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import SolarCoreConfig
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import CANCELLED, DONE, FAILED
from tests.service.conftest import run_async

SPEC = {"mix": "HM2", "site": "AZ", "month": 7}


def test_health_stats_and_job_listing(harness_factory, gated_compute):
    async def main():
        gated_compute.release()
        async with harness_factory() as h:
            assert await h.client.healthz() == {"status": "ok"}
            empty = await h.client.stats()
            assert empty["jobs"]["running"] == 0
            assert await h.client.jobs() == []

            doc = await h.client.submit(dict(SPEC, label="listed"), wait=True)
            listing = await h.client.jobs()
            assert [j["job_id"] for j in listing] == [doc["job_id"]]
            assert listing[0]["label"] == "listed"

            fetched = await h.client.job(doc["job_id"])
            assert fetched["state"] == DONE
            assert fetched["result"][0]["ptp"] == 1234.0

    run_async(main())


def test_submit_without_wait_returns_202_immediately(
    harness_factory, gated_compute
):
    async def main():
        async with harness_factory() as h:
            doc = await h.client.submit(dict(SPEC))
            assert doc["state"] in ("queued", "running")
            gated_compute.release()
            final = await h.client.wait_terminal(doc["job_id"])
            assert final["state"] == DONE

    run_async(main())


def test_wait_submit_answers_when_another_client_cancels_its_job(
    harness_factory, gated_compute
):
    """A ``?wait=1`` submit whose job is cancelled mid-compute answers 200
    with the cancelled state, not an error."""

    async def main():
        async with harness_factory() as h:
            waiting = asyncio.ensure_future(
                h.client.submit(dict(SPEC), wait=True)
            )
            while not gated_compute.started.is_set():
                await asyncio.sleep(0.01)
            other = ServiceClient(h.service.host, h.service.port)
            (listed,) = await other.jobs()
            await other.cancel(listed["job_id"])
            gated_compute.release()
            doc = await waiting
            assert doc["job_id"] == listed["job_id"]
            assert doc["state"] == CANCELLED

    run_async(main())


def test_validation_errors_are_422_with_the_offending_field(harness_factory):
    async def main():
        async with harness_factory() as h:
            with pytest.raises(ServiceError) as excinfo:
                await h.client.submit({"site": "AZ"})  # no month
            assert excinfo.value.status == 422
            assert "month" in str(excinfo.value)

            with pytest.raises(ServiceError) as excinfo:
                await h.client.submit(dict(SPEC, solver="magic"))
            assert excinfo.value.status == 422
            assert "solver" in str(excinfo.value)

    run_async(main())


def test_malformed_json_is_400(harness_factory):
    async def main():
        async with harness_factory() as h:
            reader, writer = await asyncio.open_connection(
                h.service.host, h.service.port
            )
            body = b"{not json"
            writer.write(
                b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            await writer.drain()
            status_line = await reader.readline()
            assert b" 400 " in status_line
            writer.close()

    run_async(main())


def test_unknown_routes_and_jobs_are_404(harness_factory):
    async def main():
        async with harness_factory() as h:
            for method, path in [
                ("GET", "/nope"),
                ("GET", "/jobs/job-999999"),
                ("POST", "/jobs/job-999999/cancel"),
            ]:
                with pytest.raises(ServiceError) as excinfo:
                    await h.client.request(method, path)
                assert excinfo.value.status == 404

    run_async(main())


def test_ws_endpoint_without_upgrade_is_426(harness_factory):
    async def main():
        async with harness_factory() as h:
            with pytest.raises(ServiceError) as excinfo:
                await h.client.request("GET", "/ws/telemetry")
            assert excinfo.value.status == 426

    run_async(main())


def test_failed_compute_surfaces_as_failed_job(harness_factory, monkeypatch):
    def explode(task, config):
        raise RuntimeError("panel caught fire")

    monkeypatch.setattr("repro.harness.runner.compute_task", explode)

    async def main():
        async with harness_factory() as h:
            doc = await h.client.submit(dict(SPEC), wait=True)
            assert doc["state"] == FAILED
            assert "RuntimeError: panel caught fire" in doc["error"]
            assert "result" not in doc

    run_async(main())


def test_campaign_spec_runs_every_seed(harness_factory, gated_compute):
    async def main():
        gated_compute.release()
        async with harness_factory() as h:
            doc = await h.client.submit({
                "campaign": {"mix": "HM2", "sites": ["AZ"], "months": [7],
                             "days": 3},
            }, wait=True)
            assert doc["state"] == DONE
            assert doc["tasks"] == 3
            assert gated_compute.calls == 3

    run_async(main())


def test_per_solver_runners_are_isolated(harness_factory, gated_compute):
    async def main():
        gated_compute.release()
        async with harness_factory() as h:
            await h.client.submit(dict(SPEC), wait=True)
            await h.client.submit(dict(SPEC, solver="table"), wait=True)
            # Different solver = different cache identity = two computes.
            assert gated_compute.calls == 2
            stats = await h.client.stats()
            assert set(stats["runners"]) == {"exact/alpha8", "table/alpha8"}

    run_async(main())


def test_jobs_default_to_the_servers_solver_and_chip(
    harness_factory, gated_compute
):
    async def main():
        gated_compute.release()
        async with harness_factory(config=SolarCoreConfig(solver="table")) as h:
            doc = await h.client.submit(dict(SPEC), wait=True)
            assert doc["state"] == DONE
            assert doc["solver"] == "table"
            stats = await h.client.stats()
            assert set(stats["runners"]) == {"table/alpha8"}

    run_async(main())


def test_every_runner_shares_one_compute_pool(harness_factory, gated_compute):
    """``max_workers`` bounds computes across solvers, not per solver."""

    async def main():
        async with harness_factory(max_workers=2) as h:
            jobs = [
                await h.client.submit(dict(SPEC, month=month, solver=solver))
                for solver in ("exact", "table") for month in (1, 4, 7)
            ]
            while gated_compute.calls < 2:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.3)  # room for any extra thread to start
            assert gated_compute.peak == 2
            gated_compute.release()
            for doc in jobs:
                final = await h.client.wait_terminal(doc["job_id"])
                assert final["state"] == DONE
            assert gated_compute.calls == 6
            assert gated_compute.peak == 2

    run_async(main())


def test_real_simulation_end_to_end():
    # One unfaked pass through the full stack: real weather, real panel,
    # real day engine, summarized over HTTP.  Coarse cadence keeps it fast.
    from tests.service.conftest import ServiceHarness

    async def main():
        config = SolarCoreConfig(step_minutes=15.0)
        async with ServiceHarness(config=config) as h:
            doc = await h.client.submit(dict(SPEC), wait=True)
            assert doc["state"] == DONE
            (summary,) = doc["result"]
            assert summary["ptp"] > 0
            assert 0.0 < summary["energy_utilization"] <= 1.0

    run_async(main())


def test_snapshot_says_which_day_path_ran():
    # The service's hub is enabled, yet a table-mode job still batches:
    # the snapshot message books no fastday decline and carries the
    # day's single timer.
    from tests.service.conftest import ServiceHarness

    async def main():
        config = SolarCoreConfig(step_minutes=15.0)
        async with ServiceHarness(config=config) as h:
            doc = await h.client.submit(dict(SPEC, solver="table"), wait=True)
            assert doc["state"] == DONE
            message = h.service._snapshot_message()
            assert not [name for name in message["counters"]
                        if name.startswith("fastday.declined.")]
            assert message["counters"]["sim.days"] == 1
            assert message["timers"]["run_day"]["count"] == 1
            assert message["timers"]["controller.track"]["count"] > 0

    run_async(main())


def test_terminal_jobs_leave_only_their_table_entries(
    harness_factory, gated_compute
):
    """A finished job keeps its JobTable entry and nothing else: no task,
    and no subscriber list once its last subscription closes."""

    async def main():
        gated_compute.release()
        async with harness_factory() as h:
            docs = [
                await h.client.submit(dict(SPEC, month=month), wait=True)
                for month in (1, 4, 7, 10)
            ]
            assert [doc["state"] for doc in docs] == [DONE] * 4
            ws = await h.client.ws(f"/ws/jobs/{docs[-1]['job_id']}")
            states = [m["state"] for m in await ws.drain_until_closed()]
            assert states[-1] == DONE
            await ws.close()

            assert h.service._job_tasks == {}
            # The server unsubscribes after it sends the close frame.
            for _ in range(500):
                if not h.service.table._subs:
                    break
                await asyncio.sleep(0.01)
            assert h.service.table._subs == {}
            assert len(await h.client.jobs()) == 4

    run_async(main())
