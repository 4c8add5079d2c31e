// Positive fixture: src/campaign/runner is no longer a seam. The campaign
// runs its cells on util::WorkerPool, so a private pool here — a thread
// or the namespace-scope generation state that drives it — is flagged
// like in any other sequential file.
#include <atomic>
#include <thread>

namespace syndog::campaign {

std::atomic<int> corpus_generation{0};  // EXPECT(concurrency.shared_mutable_static)

void corpus_run_window() {
  std::thread worker([] { corpus_generation.fetch_add(1); });  // EXPECT(concurrency.raw_thread)
  worker.join();
}

}  // namespace syndog::campaign
