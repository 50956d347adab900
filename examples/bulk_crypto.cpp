// Bulk encryption: the paper's "encryption/decryption" task family.
//
// p independent messages (e.g. per-session payloads) are TEA-encrypted in
// bulk, each with its own key — one lane per message.  Obliviousness means
// the access pattern leaks nothing about keys or plaintexts, and the bulk
// executor turns the cipher's straight-line rounds into lockstep SIMD work.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "algos/tea_cipher.hpp"
#include "bulk/bulk.hpp"
#include "bulk/timing_estimator.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "gpusim/virtual_gpu.hpp"
#include "plan/plan.hpp"

int main() {
  using namespace obx;

  const std::size_t blocks = 16;  // 128 bytes of payload per message
  const std::size_t p = 1024;     // messages

  const trace::Program program = algos::tea_program(blocks);

  // 1. Build p messages: random key + a recognisable plaintext pattern.
  Rng rng(1337);
  std::vector<Word> inputs;
  inputs.reserve(p * program.input_words);
  std::vector<std::vector<Word>> plain(p);
  for (std::size_t m = 0; m < p; ++m) {
    std::vector<Word> one = algos::tea_random_input(blocks, rng);
    for (std::size_t b = 0; b < blocks; ++b) {
      one[4 + 2 * b] = (m << 8) | b;  // traceable plaintext
      one[4 + 2 * b + 1] = 0x5a5a5a5au;
    }
    plain[m] = one;
    inputs.insert(inputs.end(), one.begin(), one.end());
  }

  // 2. Bulk-encrypt.
  const plan::BulkOutputs cipher = plan::run_bulk(program, inputs, p);

  // 3. Verify a sample of lanes against the native cipher, then decrypt one
  //    message end-to-end.
  for (std::size_t m = 0; m < p; m += 111) {
    const auto expected = algos::tea_reference(blocks, plain[m]);
    const auto got = cipher.output(m);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (got[i] != expected[i]) {
        std::printf("ciphertext mismatch at message %zu word %zu\n", m, i);
        return 1;
      }
    }
  }

  const std::size_t probe = 777;
  std::uint32_t k[4];
  for (int i = 0; i < 4; ++i) k[i] = static_cast<std::uint32_t>(plain[probe][static_cast<std::size_t>(i)]);
  const auto ct = cipher.output(probe);
  std::size_t restored = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::uint32_t v[2] = {static_cast<std::uint32_t>(ct[2 * b]),
                          static_cast<std::uint32_t>(ct[2 * b + 1])};
    // TEA decryption (inverse rounds).
    std::uint32_t sum = 0x9e3779b9u * 32;
    for (int r = 0; r < 32; ++r) {
      v[1] -= ((v[0] << 4) + k[2]) ^ (v[0] + sum) ^ ((v[0] >> 5) + k[3]);
      v[0] -= ((v[1] << 4) + k[0]) ^ (v[1] + sum) ^ ((v[1] >> 5) + k[1]);
      sum -= 0x9e3779b9u;
    }
    if (v[0] == ((probe << 8) | b) && v[1] == 0x5a5a5a5au) ++restored;
  }
  std::printf("encrypted %zu messages x %zu blocks; decryption restored %zu/%zu "
              "blocks of message %zu\n",
              p, blocks, restored, blocks, probe);
  if (restored != blocks) return 1;

  // 4. Cost on the model: TEA is compute-bound — show both accountings.
  const gpusim::VirtualGpu gpu(gpusim::gtx_titan());
  umm::MachineConfig charged = gpu.spec().memory;
  charged.count_compute = true;
  const bulk::Layout layout = bulk::make_layout(program, p, bulk::Arrangement::kColumnWise);
  const auto free_compute =
      bulk::TimingEstimator(umm::Model::kUmm, gpu.spec().memory, layout).run(program);
  const auto paid_compute =
      bulk::TimingEstimator(umm::Model::kUmm, charged, layout).run(program);
  std::printf("simulated units, column-wise: %llu (memory only) vs %llu (compute "
              "charged; %llu register steps per message)\n",
              static_cast<unsigned long long>(free_compute.time_units),
              static_cast<unsigned long long>(paid_compute.time_units),
              static_cast<unsigned long long>(paid_compute.stats.compute_steps));
  std::printf("ok\n");
  return 0;
}
