// Package cluster shards overlaysim job execution across a fleet of
// serve processes (see docs/CLUSTER.md).
//
// A Coordinator is a server.FrontEnd — the same /v1/jobs API, job
// table, store tier and SSE fan-out a single node runs — over the
// forwarding executor defined here. Each admitted job is routed by
// rendezvous-hashing its canonical spec digest (exp.JobSpec.Key) over
// the healthy workers, so identical specs land on the same shard and
// its in-memory caches; losing a worker re-ranks only that worker's
// keys. Progress streams back over the worker's SSE feed and is
// re-published on the coordinator's own /v1/jobs/{id}/events, so
// clients keep one connection even when a job is re-routed mid-flight.
//
// Three properties make sharding sound here: the simulator is
// deterministic (any worker computes bit-identical results for a
// spec), results are content-addressed by the spec digest (the same
// key names the coordinator's route, every worker's LRU slot and the
// persistent store entry), and completed results are immutable. A
// coordinator therefore never needs job affinity for correctness —
// only for cache locality — and re-running a lost job on another
// shard is always safe.
//
// FSStore is the package's persistent ResultStore: one directory,
// one file per digest, shared by any number of workers and
// coordinators on a common mount. It backs the server.Config.Store
// tier of both processes, so completed work survives process restarts
// and is deduplicated fleet-wide.
package cluster
