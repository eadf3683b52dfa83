#include "runtime/executor.hpp"

#include <bit>
#include <chrono>
#include <memory>

#include "graph/algorithms.hpp"
#include "runtime/spsc_ring.hpp"
#include "runtime/worker_pool.hpp"

namespace mimd {

namespace {

/// The hot path.  Every name was resolved at compile() time: operands
/// read flat slots, initial values are baked-in constants, and channels
/// are dense indices.
void execute(const CompiledProgram& cp, const Ddg& g,
             const std::vector<std::unique_ptr<SpscChannel>>& chans,
             const RunOptions& opts, ExecutionResult& res) {
  const KernelOptions& kernel = opts.kernel;
  auto worker = [&](const CompiledThread& t) {
    std::vector<double> slots(t.num_slots, 0.0);
    std::vector<double> operands;
    for (const CompiledOp& op : t.ops) {
      switch (op.kind) {
        case CompiledOp::Kind::Compute: {
          operands.clear();
          for (std::uint32_t i = 0; i < op.num_operands; ++i) {
            const OperandRef& ref = t.operands[op.first_operand + i];
            switch (ref.kind) {
              case OperandRef::Kind::LocalSlot:
                operands.push_back(slots[ref.index]);
                break;
              case OperandRef::Kind::InitialValue:
                operands.push_back(ref.initial);
                break;
              case OperandRef::Kind::ChannelRecv: {
                const ChannelMessage m = chans[ref.index]->receive();
                MIMD_ENSURES(m.iter == ref.iter);  // FIFO tag check
                operands.push_back(m.value);
                break;
              }
            }
          }
          const double v = synthetic_value(g, op.node, op.iter, operands,
                                           kernel);
          slots[op.slot] = v;
          res.at(op.node, op.iter) = v;
          break;
        }
        case CompiledOp::Kind::Send:
          chans[op.chan]->send({op.iter, slots[op.slot]});
          break;
      }
    }
  };

  // One task per compiled thread, in the order frozen at compile() time,
  // dispatched like the JIT's kernel threads (run_indexed_gang).
  run_indexed_gang(opts.pool != nullptr ? *opts.pool : default_worker_pool(),
                   cp.threads.size(),
                   [&](std::size_t i) { worker(cp.threads[i]); });
}

}  // namespace

ExecutorPlan compile(const PartitionedProgram& prog, const Ddg& g,
                     const CompileOptions& copts) {
  ExecutorPlan plan;
  plan.compiled_ = compile_program(prog, g, copts);
  plan.graph_ = g;
  return plan;
}

ExecutionResult ExecutorPlan::run(std::int64_t n,
                                  const RunOptions& opts) const {
  MIMD_EXPECTS(n == compiled_.iterations);
  ExecutionResult res(graph_.num_nodes(), n);

  // Channel construction stays outside the timed region; only the
  // threaded execution is measured.
  std::vector<std::unique_ptr<SpscChannel>> chans;
  chans.reserve(compiled_.channels.size());
  for (const ChannelDesc& c : compiled_.channels) {
    // ring_capacity (runtime/transport.hpp) is the shared policy: the
    // generated-C backend sizes its emitted rings with the same call.
    chans.push_back(std::make_unique<SpscChannel>(ring_capacity(c.messages)));
  }
  const auto t0 = std::chrono::steady_clock::now();
  execute(compiled_, graph_, chans, opts, res);
  const auto t1 = std::chrono::steady_clock::now();
  res.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return res;
}

ExecutionResult run_reference(const Ddg& g, std::int64_t n,
                              const KernelOptions& opts) {
  MIMD_EXPECTS(n >= 0);
  const auto t0 = std::chrono::steady_clock::now();
  ExecutionResult res(g.num_nodes(), n);
  const auto order = topo_order_intra(g);
  std::vector<double> operands;
  for (std::int64_t i = 0; i < n; ++i) {
    for (const NodeId v : order) {
      operands.clear();
      for (const EdgeId eid : g.in_edges(v)) {
        const Edge& e = g.edge(eid);
        const std::int64_t src_iter = i - e.distance;
        operands.push_back(src_iter < 0 ? initial_value(e.src)
                                        : res.at(e.src, src_iter));
      }
      res.at(v, i) = synthetic_value(g, v, i, operands, opts);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  res.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return res;
}

bool values_match(const ExecutionResult& a, const ExecutionResult& b,
                  std::int64_t n) {
  // Shape before values: results can arrive over the wire (mimdc
  // --connect), so the oracle must not trust a peer to have sized them.
  const auto holds_n = [n](const ExecutionResult& r) {
    return r.iterations >= n &&
           r.values.size() == r.nodes * static_cast<std::size_t>(r.iterations);
  };
  if (a.nodes != b.nodes || !holds_n(a) || !holds_n(b)) return false;
  for (std::size_t v = 0; v < a.nodes; ++v) {
    for (std::int64_t i = 0; i < n; ++i) {
      if (std::bit_cast<std::uint64_t>(a.at(v, i)) !=
          std::bit_cast<std::uint64_t>(b.at(v, i))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace mimd
