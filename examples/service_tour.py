"""Tour of the v2 service API: batches, jobs, progressive results, HTTP.

Run:  python examples/service_tour.py
"""

import threading

from repro import BatchRequest, CharacterizeRequest, ZiggyService, load_dataset
from repro.gateway import make_async_server
from repro.service.client import ZiggyClient

# 1. A service owns the catalog, per-client sessions, and a job pool.
service = ZiggyService(max_workers=2)
service.register_table(load_dataset("boxoffice", n_rows=500))

# 2. Synchronous characterization with pagination.
response = service.characterize(
    CharacterizeRequest(where="gross > 200000000", page_size=3))
print(f"{response.n_views} views for {response.predicate!r} "
      f"(showing page 1: {len(response.views.items)})")
for view in response.views.items:
    print(f"  {view['rank']}. {view['explanation']}")

# 3. A 10-predicate batch: one engine, shared statistics cache.
predicates = [f"gross > {g}" for g in range(100_000_000, 300_000_000,
                                            20_000_000)]
batch = service.characterize_many(BatchRequest(predicates=predicates))
print(f"\nbatch: {len(batch.results)} predicates in "
      f"{batch.total_time_ms:.0f} ms "
      f"(cache: {batch.cache_hits} hits / {batch.cache_misses} misses)")

# 4. Jobs: submit, watch progressive results, fetch the outcome.
streamed = []
job = service.submit(
    CharacterizeRequest(where="budget > 50000000", client_id="jobs"),
    on_progress=lambda event: streamed.append(event.kind))
final = service.wait(job.job_id, timeout=60)
print(f"\njob {final.job_id}: {final.status}, "
      f"{len(final.partial_views)} views streamed, "
      f"{final.result.n_views} survived validation")

# 5. The same service over HTTP (stdlib asyncio server + client).
server = make_async_server(service, port=0)
threading.Thread(target=server.serve_forever, daemon=True).start()
host, port = server.server_address[:2]
client = ZiggyClient(f"http://{host}:{port}")
print(f"\nHTTP on {client.base_url}: health={client.health()['ok']}, "
      f"tables={[t.name for t in client.tables().tables]}")
remote = client.characterize("gross > 250000000", page_size=2)
print(f"remote characterize: {remote.n_views} views")
legacy = client.legacy({"action": "query", "where": "gross > 200000000"})
print(f"legacy /v1 endpoint: ok={legacy['ok']}, "
      f"n_views={legacy['n_views']}")

server.close()
