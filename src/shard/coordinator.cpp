// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "shard/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "apps/pipeline.h"
#include "core/rule_dsl.h"
#include "obs/metrics.h"
#include "shard/slice.h"
#include "shard/worker.h"
#include "simulation/archive.h"
#include "storage/persistent_store.h"
#include "util/error.h"

namespace grca::shard {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Ignores SIGPIPE for the coordinator's lifetime inside run_sharded: a
/// worker dying mid-handshake must surface as a write_frame error, not kill
/// the coordinator. Restores the previous disposition on exit.
class SigpipeGuard {
 public:
  SigpipeGuard() { previous_ = ::signal(SIGPIPE, SIG_IGN); }
  ~SigpipeGuard() {
    if (previous_ != SIG_ERR) ::signal(SIGPIPE, previous_);
  }

 private:
  using Handler = void (*)(int);
  Handler previous_ = SIG_ERR;
};

int close_quietly(int& fd) {
  if (fd >= 0) {
    int rc = ::close(fd);
    fd = -1;
    return rc;
  }
  return 0;
}

/// One spawned worker process and its coordinator-side pipe state.
struct LiveWorker {
  std::uint32_t index = 0;
  pid_t pid = -1;
  int in_write = -1;  // coordinator -> worker (handshake)
  int out_read = -1;  // worker -> coordinator (frames)
  FrameBuffer buffer;
  bool eof = false;
  bool got_status = false;
  bool protocol_error = false;
  WorkerReport report;
  std::string error;
  std::chrono::steady_clock::time_point spawned;
};

struct PipePair {
  int read_fd = -1;
  int write_fd = -1;
};

PipePair make_pipe() {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw StorageError(std::string("shard: pipe2 failed: ") +
                       std::strerror(errno));
  }
  return {fds[0], fds[1]};
}

/// Spawns one worker. In fork mode the child runs run_worker() in-process
/// (the bench/test binary is not `grca`, so there is nothing to exec); in
/// exec mode the child dup2s its pipe ends onto stdin/stdout and execs
/// `binary shard-worker`. All pipe fds carry O_CLOEXEC, so an exec'd child
/// drops every other worker's coordinator-side ends automatically; the
/// fork-mode child closes the tracked ones by hand.
LiveWorker spawn_worker(std::uint32_t index, const ShardOptions& options,
                        const std::vector<LiveWorker>& siblings) {
  PipePair to_worker = make_pipe();    // coordinator writes, worker reads
  PipePair from_worker = make_pipe();  // worker writes, coordinator reads

  pid_t pid = ::fork();
  if (pid < 0) {
    int saved = errno;
    int fd;
    fd = to_worker.read_fd; close_quietly(fd);
    fd = to_worker.write_fd; close_quietly(fd);
    fd = from_worker.read_fd; close_quietly(fd);
    fd = from_worker.write_fd; close_quietly(fd);
    throw StorageError(std::string("shard: fork failed: ") +
                       std::strerror(saved));
  }
  if (pid == 0) {
    // Child. Only async-signal-safe calls until run_worker/exec.
    ::close(to_worker.write_fd);
    ::close(from_worker.read_fd);
    if (options.fork_workers) {
      for (const LiveWorker& w : siblings) {
        if (w.in_write >= 0) ::close(w.in_write);
        if (w.out_read >= 0) ::close(w.out_read);
      }
      ::_exit(run_worker(to_worker.read_fd, from_worker.write_fd));
    }
    if (::dup2(to_worker.read_fd, STDIN_FILENO) < 0 ||
        ::dup2(from_worker.write_fd, STDOUT_FILENO) < 0) {
      ::_exit(127);
    }
    std::string binary = options.worker_binary.empty()
                             ? std::string("/proc/self/exe")
                             : options.worker_binary.string();
    const char* argv[] = {binary.c_str(), "shard-worker", nullptr};
    ::execv(binary.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }

  ::close(to_worker.read_fd);
  ::close(from_worker.write_fd);
  LiveWorker live;
  live.index = index;
  live.pid = pid;
  live.in_write = to_worker.write_fd;
  live.out_read = from_worker.read_fd;
  live.spawned = std::chrono::steady_clock::now();
  return live;
}

Handshake make_handshake(std::uint32_t index, std::uint32_t attempt,
                         const ShardOptions& options,
                         const Partition& partition,
                         const std::filesystem::path& slice_dir) {
  Handshake h;
  h.study = options.study;
  h.data_dir = options.data_dir.string();
  h.worker_index = index;
  h.worker_count = options.workers;
  h.threads = options.threads_per_worker;
  h.attempt = attempt;
  h.extra_dsl = options.extra_dsl;
  h.symptom_seqs = partition.shard_seqs[index];
  h.store_dir = slice_path(slice_dir, index).string();
  if (index == options.test_fail_worker) {
    h.fail_after_results = options.test_fail_after;
  }
  return h;
}

}  // namespace

std::string ShardReport::render_status() const {
  std::ostringstream out;
  out << "shard run: " << workers.size()
      << " workers, " << symptom_count << " symptoms, " << location_count
      << " locations (" << boundary_locations << " replicated)\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "  partition %.3fs  slice %.3fs  merge %.3fs  skew %.2f  "
                "wall %.3fs\n",
                partition_seconds, slice_seconds, merge_seconds,
                partition_skew, wall_seconds);
  out << line;
  out << "  worker  status  attempts  assigned  results  events      load"
         "  diagnose      wall\n";
  for (const WorkerStatus& w : workers) {
    std::string status = w.ok ? "ok" : "FAILED";
    std::snprintf(line, sizeof(line),
                  "  %6u  %6s  %8u  %8llu  %7llu  %6llu  %7.3fs  %7.3fs  "
                  "%7.3fs\n",
                  w.index, status.c_str(), w.attempts,
                  static_cast<unsigned long long>(w.assigned),
                  static_cast<unsigned long long>(w.results),
                  static_cast<unsigned long long>(w.store_events),
                  w.load_seconds, w.diagnose_seconds, w.wall_seconds);
    out << line;
    if (!w.error.empty()) {
      out << "          " << w.error << "\n";
    }
  }
  return std::move(out).str();
}

ShardReport run_sharded(const ShardOptions& options) {
  const auto t_start = std::chrono::steady_clock::now();
  if (options.workers == 0) {
    throw ConfigError("shard: --workers must be at least 1");
  }
  SigpipeGuard sigpipe;

  ShardReport report;
  report.workers.resize(options.workers);
  for (std::uint32_t w = 0; w < options.workers; ++w) {
    report.workers[w].index = w;
  }

  // Coordinator-side view: full store + pipeline (for the mapper the
  // partitioner projects through). Same loading path as the workers'.
  sim::ReplayCorpus corpus = sim::read_corpus(options.data_dir);
  auto store = std::make_shared<storage::PersistentEventStore>(
      storage::PersistentEventStore::open(options.store_dir));
  apps::Pipeline pipeline(corpus.network, corpus.records, store);
  core::DiagnosisGraph graph = study_graph(options.study);
  if (!options.extra_dsl.empty()) {
    core::load_dsl(options.extra_dsl, graph);
    graph.validate();
  }
  const std::string root = graph.root();

  const auto t_partition = std::chrono::steady_clock::now();
  Partition partition = partition_symptoms(pipeline.events(), root,
                                           pipeline.mapper(), options.workers);
  report.partition_seconds = seconds_since(t_partition);
  report.symptom_count = partition.symptom_shard.size();
  report.location_count = partition.locations.size();
  report.boundary_locations = partition.boundary_locations;
  report.partition_skew = partition.skew();
  for (std::uint32_t w = 0; w < options.workers; ++w) {
    report.workers[w].assigned = partition.shard_seqs[w].size();
  }

  std::filesystem::path slice_dir = options.slice_dir;
  if (slice_dir.empty()) {
    slice_dir = options.store_dir;
    slice_dir += ".slices";
  }
  const auto t_slice = std::chrono::steady_clock::now();
  write_slices(pipeline.events(), partition, slice_dir);
  report.slice_seconds = seconds_since(t_slice);

  // Result slots, keyed by global symptom seq.
  const std::size_t total = partition.symptom_shard.size();
  report.diagnoses.assign(total, core::Diagnosis{});
  report.arenas =
      std::make_shared<std::deque<std::vector<core::EventInstance>>>();
  std::vector<std::uint8_t> filled(total, 0);

  // Spawn-and-collect, shared by the first pass and --retry-failed: spawn
  // every listed worker, write every handshake, then poll the result pipes
  // until all streams hit EOF.
  auto run_pass = [&](const std::vector<std::uint32_t>& indices,
                      std::uint32_t attempt) {
    std::vector<LiveWorker> live;
    live.reserve(indices.size());
    for (std::uint32_t w : indices) {
      live.push_back(spawn_worker(w, options, live));
      report.workers[w].pid = live.back().pid;
      report.workers[w].attempts = attempt + 1;
    }
    // Workers read their handshake before writing anything, so writing the
    // handshakes sequentially after all spawns cannot deadlock.
    for (LiveWorker& w : live) {
      try {
        write_frame(w.in_write,
                    encode_handshake(make_handshake(w.index, attempt, options,
                                                    partition, slice_dir)));
      } catch (const std::exception& e) {
        w.error = std::string("handshake write failed: ") + e.what();
        w.protocol_error = true;
      }
      close_quietly(w.in_write);
    }

    double merge_seconds = 0.0;
    auto handle_frame = [&](LiveWorker& w, Frame&& frame) {
      switch (frame.type) {
        case FrameType::kResult: {
          const auto t0 = std::chrono::steady_clock::now();
          DecodedResult r = decode_result(frame.payload, *report.arenas);
          merge_seconds += seconds_since(t0);
          if (r.seq >= total || partition.symptom_shard[r.seq] != w.index) {
            w.error = "protocol error: result seq " + std::to_string(r.seq) +
                      " not owned by worker";
            w.protocol_error = true;
            return;
          }
          if (filled[r.seq] && attempt == 0) {
            w.error = "protocol error: duplicate result seq " +
                      std::to_string(r.seq);
            w.protocol_error = true;
            return;
          }
          report.diagnoses[r.seq] = std::move(r.diagnosis);
          filled[r.seq] = 1;
          report.workers[w.index].results += 1;
          break;
        }
        case FrameType::kStatus:
          w.report = decode_status(frame.payload);
          w.got_status = true;
          break;
        case FrameType::kError: {
          auto [index, message] = decode_error(frame.payload);
          (void)index;
          w.error = message;
          break;
        }
        case FrameType::kHandshake:
          w.error = "protocol error: handshake frame from worker";
          w.protocol_error = true;
          break;
      }
    };

    std::size_t open = live.size();
    std::vector<pollfd> fds;
    std::vector<LiveWorker*> fd_owner;
    std::uint8_t chunk[64 * 1024];
    while (open > 0) {
      fds.clear();
      fd_owner.clear();
      for (LiveWorker& w : live) {
        if (w.eof) continue;
        fds.push_back({w.out_read, POLLIN, 0});
        fd_owner.push_back(&w);
      }
      int ready = ::poll(fds.data(), fds.size(), -1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw StorageError(std::string("shard: poll failed: ") +
                           std::strerror(errno));
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        LiveWorker& w = *fd_owner[i];
        ssize_t n = ::read(w.out_read, chunk, sizeof(chunk));
        if (n < 0) {
          if (errno == EINTR || errno == EAGAIN) continue;
          w.error = std::string("pipe read failed: ") + std::strerror(errno);
          w.eof = true;
        } else if (n == 0) {
          if (!w.buffer.drained() && w.error.empty()) {
            w.error = "worker died mid-frame (torn stream)";
          }
          w.eof = true;
        } else {
          try {
            w.buffer.feed(chunk, static_cast<std::size_t>(n));
            while (std::optional<Frame> frame = w.buffer.next()) {
              handle_frame(w, std::move(*frame));
            }
          } catch (const std::exception& e) {
            w.error = std::string("corrupt frame: ") + e.what();
            w.protocol_error = true;
            w.eof = true;
          }
        }
        if (w.eof) {
          close_quietly(w.out_read);
          --open;
        }
      }
    }

    for (LiveWorker& w : live) {
      WorkerStatus& status = report.workers[w.index];
      int wstatus = 0;
      if (::waitpid(w.pid, &wstatus, 0) < 0) {
        status.error = std::string("waitpid failed: ") + std::strerror(errno);
      } else if (WIFSIGNALED(wstatus)) {
        status.signaled = true;
        status.exit_code = WTERMSIG(wstatus);
        if (w.error.empty()) {
          w.error = std::string("killed by signal ") +
                    std::to_string(WTERMSIG(wstatus));
        }
      } else if (WIFEXITED(wstatus)) {
        status.exit_code = WEXITSTATUS(wstatus);
        if (status.exit_code != 0 && w.error.empty()) {
          w.error =
              "exited with code " + std::to_string(status.exit_code);
        }
      }
      status.wall_seconds = seconds_since(w.spawned);
      if (!w.error.empty()) status.error = w.error;
      status.store_events = w.report.store_events;
      status.load_seconds = w.report.load_seconds;
      status.diagnose_seconds = w.report.diagnose_seconds;
      status.ok = w.got_status && !w.protocol_error && !status.signaled &&
                  status.exit_code == 0 &&
                  status.results >= status.assigned;
    }
    report.merge_seconds += merge_seconds;
  };

  // First pass: only shards with assigned symptoms get a process — empty
  // shards have no slice on disk and nothing to diagnose.
  std::vector<std::uint32_t> active;
  for (std::uint32_t w = 0; w < options.workers; ++w) {
    if (partition.shard_seqs[w].empty()) {
      report.workers[w].ok = true;
    } else {
      active.push_back(w);
    }
  }
  run_pass(active, 0);

  std::vector<std::uint32_t> failed;
  for (std::uint32_t w : active) {
    if (!report.workers[w].ok) failed.push_back(w);
  }
  if (!failed.empty() && options.retry_failed) {
    // The partition is deterministic, so a clean rerun of just the failed
    // shards reproduces their results byte-for-byte. Drop whatever partial
    // results they streamed before dying, then rerun.
    for (std::uint32_t w : failed) {
      for (std::uint32_t seq : partition.shard_seqs[w]) {
        filled[seq] = 0;
      }
      WorkerStatus& status = report.workers[w];
      status.results = 0;
      status.ok = false;
      status.signaled = false;
      status.exit_code = 0;
      status.error.clear();
    }
    run_pass(failed, 1);
  }

  bool all_filled =
      std::all_of(filled.begin(), filled.end(), [](std::uint8_t f) {
        return f != 0;
      });
  report.ok = all_filled &&
              std::all_of(report.workers.begin(), report.workers.end(),
                          [](const WorkerStatus& w) { return w.ok; });

  if (!options.keep_slices) {
    std::error_code ec;
    std::filesystem::remove_all(slice_dir, ec);
  }

  report.wall_seconds = seconds_since(t_start);
  if (obs::MetricsRegistry* reg = obs::registry_ptr()) {
    reg->gauge("grca_shard_workers").set(options.workers);
    reg->gauge("grca_shard_partition_skew").set(report.partition_skew);
    reg->gauge("grca_shard_partition_seconds").set(report.partition_seconds);
    reg->gauge("grca_shard_slice_seconds").set(report.slice_seconds);
    reg->gauge("grca_shard_merge_seconds").set(report.merge_seconds);
    reg->gauge("grca_shard_wall_seconds").set(report.wall_seconds);
    double max_worker = 0.0;
    for (const WorkerStatus& w : report.workers) {
      max_worker = std::max(max_worker, w.diagnose_seconds);
    }
    reg->gauge("grca_shard_worker_diagnose_seconds_max").set(max_worker);
  }
  return report;
}

}  // namespace grca::shard
