/**
 * @file
 * Fault-tolerance benchmark: what does losing one shard of a
 * replicated 3-shard fleet cost?
 *
 *   1. Prime a fixed key set over the fleet (replication factor 2,
 *      snapshot + WAL persistence on the victim), then measure the
 *      replication drain — the durability lag between an owned insert
 *      and its copy being acked by the ring successor.
 *   2. Kill the victim (sockets torn down, crash-stop persister) and
 *      drive every key through a failover-enabled router: requests
 *      must keep answering with zero client-visible errors.  The p50
 *      of answers served by a successor's replica set (failover path)
 *      is compared against answers served by a live owner's cache.
 *   3. Restart: rehydrate a fresh service from the victim's snapshot +
 *      WAL and report the restore time and the fraction of the
 *      victim's keys that come back as local exact hits.
 *
 * Emits BENCH_failover.json.
 */

#include <chrono>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/statistics.h"
#include "models/transformer.h"
#include "net/health.h"
#include "net/peer.h"
#include "net/router.h"
#include "net/server.h"
#include "serve/cache_store.h"
#include "serve/service.h"
#include "shard/shard_map.h"

namespace {

using opdvfs::stats::nearestRank;

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

opdvfs::net::WireRequest
benchRequest(const opdvfs::npu::NpuConfig &chip,
             const opdvfs::npu::MemorySystem &memory, int seq)
{
    opdvfs::models::TransformerConfig model;
    model.name = "failover-bench";
    model.layers = 2;
    model.hidden = 1024;
    model.heads = 8;
    model.seq = seq;
    opdvfs::net::WireRequest request;
    request.workload =
        opdvfs::models::buildTransformerTraining(memory, model, 5);
    request.chip = chip;
    request.seed = 11;
    return request;
}

/** One in-process shard with the full fault-tolerance stack. */
struct Shard
{
    std::shared_ptr<opdvfs::shard::SharedShardMap> map;
    std::shared_ptr<opdvfs::net::ShardPeers> peers;
    std::shared_ptr<opdvfs::net::ShardReplicator> replicator;
    std::shared_ptr<opdvfs::net::HealthMonitor> health;
    std::unique_ptr<opdvfs::serve::CachePersister> persister;
    std::unique_ptr<opdvfs::serve::StrategyService> service;
    std::unique_ptr<opdvfs::net::StrategyServer> server;
    std::uint32_t id = 0;
    std::string snapshot_path;
    std::string wal_path;
};

struct Fleet
{
    std::vector<std::unique_ptr<Shard>> shards;

    opdvfs::shard::ShardMap clientMap() const
    {
        return *shards.front()->map->snapshot();
    }

    void stop()
    {
        for (auto &shard : shards) {
            shard->server->stop();
            if (shard->replicator)
                shard->replicator->stop();
            if (shard->persister)
                shard->persister->stop(false);
        }
    }
};

Fleet
makeFleet(std::size_t count, const std::string &persist_dir)
{
    using namespace opdvfs;
    Fleet fleet;
    for (std::size_t at = 0; at < count; ++at) {
        auto shard = std::make_unique<Shard>();
        shard->id = static_cast<std::uint32_t>(at + 1);
        shard->map = std::make_shared<opdvfs::shard::SharedShardMap>();
        shard->peers =
            std::make_shared<net::ShardPeers>(shard->id, shard->map);
        net::ReplicatorOptions replication;
        replication.replication_factor = 2;
        shard->replicator = std::make_shared<net::ShardReplicator>(
            shard->id, shard->map, replication);
        net::HealthOptions health;
        health.probe_interval_seconds = 0.0; // probed explicitly
        health.suspect_after_failures = 1;
        health.down_after_failures = 2;
        shard->health = std::make_shared<net::HealthMonitor>(
            shard->id, shard->map, health);

        serve::ServiceOptions options;
        options.pipeline = bench::standardPipeline(0.02);
        options.pipeline.warmup_seconds = 2.0;
        options.pipeline.profile_freqs_mhz = {1000.0, 1800.0};
        options.pipeline.ga.population = 40;
        options.pipeline.ga.generations = 90;
        options.workers = 2;
        options.peer_donor_lookup = net::makePeerDonorLookup(shard->peers);
        shard->service =
            std::make_unique<serve::StrategyService>(options);

        std::string stem =
            persist_dir + "/shard" + std::to_string(shard->id);
        shard->snapshot_path = stem + ".snap";
        shard->wal_path = stem + ".wal";
        serve::CachePersister::Options persist;
        persist.snapshot_path = shard->snapshot_path;
        persist.wal_path = shard->wal_path;
        persist.snapshot_interval_seconds = 0.0; // explicit only
        serve::StrategyService *service = shard->service.get();
        shard->persister = std::make_unique<serve::CachePersister>(
            persist, [service] {
                serve::CacheSnapshot snapshot;
                snapshot.model_epoch = service->modelEpoch();
                snapshot.entries = service->snapshotCache();
                return snapshot;
            });
        serve::CachePersister *persister = shard->persister.get();
        net::ShardReplicator *replicator = shard->replicator.get();
        shard->service->setInsertListener(
            [persister, replicator](const serve::CacheEntry &entry) {
                persister->onInsert(entry);
                replicator->onInsert(entry);
            });

        net::ServerOptions server_options;
        server_options.max_connections = 128;
        server_options.shard_id = shard->id;
        server_options.shard_map = shard->map;
        server_options.peers = shard->peers;
        server_options.replicator = shard->replicator;
        server_options.health = shard->health;
        shard->server = std::make_unique<net::StrategyServer>(
            *shard->service, server_options);
        shard->server->start();
        fleet.shards.push_back(std::move(shard));
    }
    for (auto &owner : fleet.shards)
        for (auto &member : fleet.shards)
            owner->map->join(
                {member->id,
                 "127.0.0.1:"
                     + std::to_string(member->server->port())});
    return fleet;
}

} // namespace

int
main()
{
    using namespace opdvfs;

    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "opdvfs_bench_failover";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    Fleet fleet = makeFleet(3, dir.string());
    shard::ShardMap map = fleet.clientMap();

    // Key set: 4 owned by the victim (the owner of the first key), 4
    // owned by the survivors.
    npu::NpuConfig chip = bench::standardChip();
    npu::MemorySystem memory(chip.memory);
    struct Key
    {
        net::WireRequest request;
        bool victim_owned = false;
    };
    std::vector<Key> keys;
    keys.push_back({benchRequest(chip, memory, 256), true});
    std::uint32_t victim_id =
        map.ownerOf(net::ShardRouter::requestDigest(keys[0].request)).id;
    std::size_t victim_owned = 1;
    std::size_t other_owned = 0;
    for (int seq = 264; seq <= 1024 && (victim_owned < 4 || other_owned < 4);
         seq += 8) {
        Key key{benchRequest(chip, memory, seq), false};
        key.victim_owned =
            map.ownerOf(net::ShardRouter::requestDigest(key.request)).id
            == victim_id;
        if (key.victim_owned) {
            if (victim_owned >= 4)
                continue;
            ++victim_owned;
        } else {
            if (other_owned >= 4)
                continue;
            ++other_owned;
        }
        keys.push_back(std::move(key));
    }
    Shard *victim = nullptr;
    for (auto &shard : fleet.shards)
        if (shard->id == victim_id)
            victim = shard.get();

    std::cout << "priming " << keys.size() << " keys (victim shard "
              << victim_id << " owns " << victim_owned << ")\n";
    net::RouterOptions prime_options;
    prime_options.client.request_timeout_seconds = 300.0;
    net::ShardRouter primer(map, prime_options);
    std::size_t half = keys.size() / 2;
    for (std::size_t at = 0; at < half; ++at)
        primer.call(keys[at].request);
    // Mid-stream snapshot: recovery must read the first half from the
    // snapshot and the rest from the WAL.
    victim->persister->flush();
    victim->persister->writeSnapshotNow();
    for (std::size_t at = half; at < keys.size(); ++at)
        primer.call(keys[at].request);

    // Replication drain: the durability lag behind the last insert.
    Clock::time_point drain_start = Clock::now();
    victim->replicator->flush();
    double replication_drain_ms = millisSince(drain_start);
    net::ReplicatorStats replication = victim->replicator->stats();
    victim->persister->flush();

    // Kill the victim: connections die, the persister crash-stops
    // (no final snapshot — only the durable snapshot + WAL survive).
    victim->server->stop();
    victim->replicator->stop();
    victim->persister->stop(/*write_final_snapshot=*/false);

    Shard *observer = fleet.shards[victim_id == 1 ? 1 : 0].get();
    observer->health->probeOnce();
    observer->health->probeOnce();

    net::RouterOptions failover_options;
    failover_options.client.request_timeout_seconds = 300.0;
    failover_options.client.connect_timeout_seconds = 0.3;
    failover_options.client.max_attempts = 2;
    failover_options.failover = true;
    failover_options.max_failover_successors = 2;
    failover_options.peer_health = [observer](std::uint32_t id) {
        return observer->health->healthOf(id);
    };
    net::ShardRouter router(map, failover_options);

    const int kRounds = 5;
    std::size_t errors = 0;
    std::size_t served = 0;
    std::vector<double> failover_ms;
    std::vector<double> owner_ms;
    for (int round = 0; round < kRounds; ++round) {
        for (const Key &key : keys) {
            Clock::time_point start = Clock::now();
            try {
                net::WireResponse response = router.call(key.request);
                (void)response;
                ++served;
                (key.victim_owned ? failover_ms : owner_ms)
                    .push_back(millisSince(start));
            } catch (const std::exception &error) {
                ++errors;
                std::cerr << "request failed: " << error.what() << "\n";
            }
        }
    }
    std::cout << "kill window: " << served << " served, " << errors
              << " errors, " << router.failoversServed()
              << " failovers\n";

    // Restart: rehydrate a fresh service from snapshot + WAL.
    serve::ServiceOptions restore_options;
    restore_options.pipeline = bench::standardPipeline(0.02);
    restore_options.pipeline.warmup_seconds = 2.0;
    restore_options.pipeline.profile_freqs_mhz = {1000.0, 1800.0};
    restore_options.workers = 2;
    serve::StrategyService restored(restore_options);
    Clock::time_point restore_start = Clock::now();
    serve::RestoreReport report = serve::restoreServiceCache(
        restored, victim->snapshot_path, victim->wal_path);
    double restore_ms = millisSince(restore_start);

    std::size_t recovered_hits = 0;
    for (const Key &key : keys) {
        if (!key.victim_owned)
            continue;
        serve::StrategyRequest request;
        request.workload = key.request.workload;
        request.seed = key.request.seed;
        serve::StrategyResponse answer = restored.submit(request).get();
        if (answer.provenance == serve::Provenance::ExactHit)
            ++recovered_hits;
    }
    double restored_fraction =
        static_cast<double>(recovered_hits)
        / static_cast<double>(victim_owned);
    std::cout << "restore: " << report.restored << " entries in "
              << restore_ms << " ms, " << recovered_hits << "/"
              << victim_owned << " victim keys exact-hit\n";
    restored.drain();

    bench::BenchJson json("failover");
    json.add("kill_window_requests", static_cast<double>(served),
             "count");
    json.add("kill_window_errors", static_cast<double>(errors), "count");
    json.add("failovers_served",
             static_cast<double>(router.failoversServed()), "count");
    json.add("failover_p50", nearestRank(failover_ms, 0.5), "ms");
    json.add("owner_hit_p50", nearestRank(owner_ms, 0.5), "ms");
    json.add("replication_drain", replication_drain_ms, "ms");
    json.add("replication_acked", static_cast<double>(replication.acked),
             "count");
    json.add("replication_dropped",
             static_cast<double>(replication.dropped), "count");
    json.add("snapshot_entries",
             static_cast<double>(report.snapshot_entries), "count");
    json.add("wal_entries", static_cast<double>(report.wal_entries),
             "count");
    json.add("restore_time", restore_ms, "ms");
    json.add("restored_fraction", restored_fraction, "ratio");
    json.write();

    fleet.stop();
    std::filesystem::remove_all(dir);
    return errors == 0 && restored_fraction >= 0.99 ? 0 : 1;
}
