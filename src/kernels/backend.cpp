#include "kernels/backend.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace pdsl::kernels {

namespace {

Backend initial_backend() noexcept {
  if (const char* env = std::getenv("PDSL_KERNEL_BACKEND")) {
    const std::string name(env);
    if (name == "naive") return Backend::kNaive;
    if (!name.empty() && name != "vectorized") {
      std::fprintf(stderr,
                   "PDSL_KERNEL_BACKEND='%s' not recognized (expected naive | vectorized), "
                   "using 'vectorized'\n",
                   env);
    }
  }
  return Backend::kVectorized;
}

std::atomic<Backend>& state() {
  static std::atomic<Backend> backend{initial_backend()};
  return backend;
}

}  // namespace

Backend backend() noexcept { return state().load(std::memory_order_relaxed); }

void set_backend(Backend b) noexcept { state().store(b, std::memory_order_relaxed); }

Backend backend_from_string(const std::string& name, const std::string& what) {
  if (name == "naive") return Backend::kNaive;
  if (name == "vectorized") return Backend::kVectorized;
  throw std::invalid_argument(what + ": unknown kernel backend '" + name +
                              "' (expected naive | vectorized)");
}

const char* backend_name(Backend b) noexcept {
  return b == Backend::kNaive ? "naive" : "vectorized";
}

}  // namespace pdsl::kernels
