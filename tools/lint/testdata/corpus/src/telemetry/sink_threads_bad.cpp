// Positive fixture: src/telemetry is no longer a seam. The sink appends
// on the producer's thread, so a drain thread here — or the
// namespace-scope counter it would bump — is flagged like in any other
// sequential module.
#include <atomic>
#include <thread>

namespace syndog::telemetry {

std::atomic<long> corpus_drained{0};  // EXPECT(concurrency.shared_mutable_static)

void corpus_drain() {
  std::thread consumer([] { corpus_drained.fetch_add(1); });  // EXPECT(concurrency.raw_thread)
  consumer.join();
}

}  // namespace syndog::telemetry
