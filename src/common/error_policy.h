// Canonical error taxonomy + catch-boundary declarations.
//
// Every exception type that may cross a function boundary in src/ is
// declared here, with the module that owns it and the outermost module
// layer it may escape to. tools/throw_graph_lint.py parses THIS file (keep
// the `inline constexpr ErrorClass` / `inline constexpr CatchBoundary`
// declarations one-per-line, same contract as lock_order.h) and enforces:
//
//   - every `throw` in src/ constructs a declared taxonomy type (untyped
//     `throw std::runtime_error(...)`-style escapes are findings);
//   - a type thrown in module M may only be thrown from modules within its
//     declared scope (`modules` below, "*" = anywhere) — e.g. WireError is
//     service-only and must never appear under src/core or src/storage;
//   - destructors and move operations are transitively throw-free (the
//     DEFRAG_CHECK fatal path is exempt: an invariant failure in a dtor is
//     a bug report, not a recoverable error path);
//   - every thread spawn site carries a `// throw-graph: boundary=<Name>`
//     annotation naming a CatchBoundary below, and that boundary's function
//     catches the full taxonomy (CheckFailure + std::exception, or routes
//     exceptions into a std::future via std::packaged_task);
//   - `catch (...)` appears only inside a declared boundary function.
//
// The layering DAG the scope column refers to is the one layering_lint.py
// enforces: common < {obs, chunking, compress} < {storage, index, workload}
// < dedup < core < service.
//
// Taxonomy (owner module -> where it may be thrown from):
//
//   CheckFailure      common    anywhere   invariant failure; fatal path.
//                                          Catching it is a bug REPORT —
//                                          permitted only at declared
//                                          thread boundaries, where it
//                                          turns one dead session/task
//                                          into a logged error instead of
//                                          std::terminate for the daemon.
//   FailpointError    common    anywhere   injected fault (failpoint.h);
//                                          behaves like a transient
//                                          environment error.
//   InputError        common    common     malformed caller-supplied data
//                                          (bytes.cpp from_hex). Derives
//                                          std::invalid_argument.
//   MetricsParseError obs       obs        defrag.metrics.v1 snapshot
//                                          parse failure.
//   WireError         service   service    malformed/oversized frame or
//                                          protocol violation from a peer.
//   SocketError       service   service    errno-carrying socket failure.
//   RejectedError     service   service    server admission rejection,
//                                          surfaced client-side.
//   RemoteError       service   service    server-reported ERROR response,
//                                          surfaced client-side.
//
// Catch boundaries (the only places `catch (...)` or a taxonomy-wide catch
// is legal; every thread entry point must name one):
//
//   Session::run              session.cpp      kind=catch   one session
//                             thread; peer errors answered/closed, internal
//                             errors (CheckFailure, std::exception) logged
//                             with rid + counted, session dies, daemon
//                             lives.
//   ThreadPool::worker_loop   thread_pool.cpp  kind=future  tasks run as
//                             std::packaged_task, so any exception is
//                             captured into the task's future and re-raised
//                             at get(); nothing can escape the worker.
#pragma once

namespace defrag::error_policy {

/// One declared exception type. `modules` is a comma-separated list of
/// src/ subdirectories the type may be thrown from ("*" = any module).
struct ErrorClass {
  const char* name;
  const char* owner;    // module that defines the type
  const char* modules;  // where throw sites may appear
};

/// One declared catch boundary: `function` (as written at the catch site)
/// in `file`, with `kind` "catch" (explicit taxonomy-wide handlers) or
/// "future" (exceptions transported via std::packaged_task/std::future).
struct CatchBoundary {
  const char* name;      // referenced by `// throw-graph: boundary=<name>`
  const char* file;      // basename of the defining .cpp
  const char* kind;      // "catch" | "future"
};

// The canonical taxonomy (one per line; parsed by throw_graph_lint.py).
inline constexpr ErrorClass kCheckFailure{"CheckFailure", "common", "*"};
inline constexpr ErrorClass kFailpointError{"FailpointError", "common", "*"};
inline constexpr ErrorClass kInputError{"InputError", "common", "common"};
inline constexpr ErrorClass kMetricsParseError{"MetricsParseError", "obs", "obs"};
inline constexpr ErrorClass kWireError{"WireError", "service", "service"};
inline constexpr ErrorClass kSocketError{"SocketError", "service", "service"};
inline constexpr ErrorClass kRejectedError{"RejectedError", "service", "service"};
inline constexpr ErrorClass kRemoteError{"RemoteError", "service", "service"};

// The declared catch boundaries (one per line; parsed by the lint).
inline constexpr CatchBoundary kSessionRun{"Session::run", "session.cpp", "catch"};
inline constexpr CatchBoundary kWorkerLoop{"ThreadPool::worker_loop", "thread_pool.cpp", "future"};

}  // namespace defrag::error_policy
