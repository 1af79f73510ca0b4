// The three workloads. Each fills `result` for one run: set-up (timed
// several times), then either the untraced measurement loop or, with
// options.trace, the traced layer breakdown.
#pragma once

#include <memory>
#include <string>

#include "common.hpp"
#include "serve/server.hpp"

namespace perfbench {

void run_cold_1m(const Options& options, Result& result);
void run_serve_hot(const Options& options, Result& result);
void run_mutate_stream(const Options& options, Result& result);

/// An in-process analysis server listening on a Unix socket in the work
/// directory (the library API, not a daemon binary).
std::unique_ptr<hp::serve::Server> start_server(const Options& options);
void stop_server(std::unique_ptr<hp::serve::Server>& server);

}  // namespace perfbench
