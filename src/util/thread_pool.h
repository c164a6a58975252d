// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// A small fixed-size thread pool for the platform's embarrassingly-parallel
// hot paths (per-symptom diagnosis, streaming diagnosis workers).
// Deliberately simple: one shared FIFO queue, chunked parallel_for, no work
// stealing — diagnosis tasks are coarse enough (microseconds to milliseconds
// each) that a shared queue never becomes the bottleneck at the core counts
// we target.
//
// Threading contract: submit() may be called from any thread; wait() blocks
// until every task submitted so far has finished and rethrows the first
// exception any task threw. parallel_for() is a self-contained fork-join and
// may be called concurrently with other parallel_for() calls on the same
// pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace grca::util {

class ThreadPool {
 public:
  /// Starts `threads` workers; 0 means hardware_concurrency(). A pool with
  /// one worker still runs tasks on that worker (not inline), so code paths
  /// are identical at every size.
  explicit ThreadPool(unsigned threads = 0);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// `hardware_concurrency`, never 0.
  static unsigned default_threads() noexcept;

  /// Enqueues one task for execution on some worker.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far (by any thread) has completed.
  /// If any task threw, rethrows the first captured exception (once).
  void wait();

  /// Runs fn(i) for every i in [begin, end), distributing contiguous chunks
  /// across the workers, and blocks until all of them finish. The first
  /// exception thrown by any fn(i) is rethrown after the join. Safe to call
  /// concurrently from multiple threads.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // queued + currently executing
  std::exception_ptr first_error_;
  bool stop_ = false;
};

/// A bounded multi-producer multi-consumer FIFO for pipeline stages (the
/// streaming engine's ingestion -> diagnosis hand-off). push() blocks while
/// the queue is full; pop() blocks while it is empty. close() wakes everyone:
/// subsequent push() calls are rejected and pop() drains the remaining items
/// before returning false.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

  /// Blocks until there is room. Returns false (dropping the item) when the
  /// queue has been closed.
  bool push(T item) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained;
  /// returns false only in the latter case.
  bool pop(T& out) {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return true;
  }

  /// Rejects future pushes and unblocks all waiters. Idempotent.
  void close() {
    std::lock_guard lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Items currently buffered (a snapshot; stale by the time it returns).
  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace grca::util
