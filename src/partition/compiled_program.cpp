#include "partition/compiled_program.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/kernels.hpp"

namespace mimd {

namespace {

/// A channel's identity: (edge, src proc, dst proc).
struct ChanKey {
  EdgeId edge;
  int src;
  int dst;
  friend auto operator<=>(const ChanKey&, const ChanKey&) = default;
};

/// A received value as its consumer asks for it: (edge, producing
/// instance).
struct RecvKey {
  EdgeId edge;
  Inst value;
  friend bool operator==(const RecvKey&, const RecvKey&) = default;
};

struct RecvKeyHash {
  std::size_t operator()(const RecvKey& k) const noexcept {
    return InstHash{}(k.value) ^ (k.edge * 0x9E3779B97F4A7C15ULL);
  }
};

/// Where a computed instance lives: the compiling thread and its SSA slot.
struct Home {
  std::size_t thread;
  SlotId slot;
};

constexpr ChannelId kNoChannel = static_cast<ChannelId>(-1);

[[noreturn]] void reject(const std::string& msg) {
  detail::contract_fail("compiled lowering", msg.c_str());
}

/// One channel's traffic as the walk sees it.
struct Traffic {
  ChanKey key;
  ChannelId final_id = kNoChannel;  ///< dense id, assigned at the first Send
  std::vector<Inst> sent;           ///< send order
  std::vector<Inst> received;       ///< receive order
  /// received[consumed] is the oldest pending receive.
  std::size_t consumed = 0;
};

/// Everything one compile_program walk accumulates.  Channels get a
/// provisional id at first appearance (send or receive) and their final,
/// dense ChannelId at their first Send — processor order, then program
/// order, exactly the order the walk visits sends in.
struct Walk {
  explicit Walk(const Ddg& graph) : g(graph) {}

  const Ddg& g;
  std::map<ChanKey, ChannelId> chan_ids;
  std::vector<Traffic> traffic;  ///< by provisional id
  std::unordered_map<Inst, Home, InstHash> computed;
  std::vector<ChannelDesc> channels;  ///< by final id
  std::int64_t computes = 0;

  /// Per thread: the channels into this PE, and each one's oldest pending
  /// receive keyed by what a consumer asks for.  Two channels can only
  /// share a head if two PEs computed the same instance, which the walk
  /// rejects anyway, so a colliding head is simply not indexed.
  std::vector<ChannelId> inbound;
  std::unordered_map<RecvKey, ChannelId, RecvKeyHash> heads;

  [[nodiscard]] std::string name(const Inst& i) const {
    return (i.node < g.num_nodes() ? g.node(i.node).name
                                   : "#" + std::to_string(i.node)) +
           "@" + std::to_string(i.iter);
  }

  ChannelId channel(EdgeId edge, int src, int dst) {
    const auto [it, fresh] = chan_ids.try_emplace(
        ChanKey{edge, src, dst}, static_cast<ChannelId>(traffic.size()));
    if (fresh) traffic.emplace_back().key = it->first;
    return it->second;
  }

  /// Index channel c's oldest pending receive, if it has one.
  void index_head(ChannelId c) {
    const Traffic& t = traffic[c];
    if (t.consumed < t.received.size()) {
      heads.try_emplace(RecvKey{t.key.edge, t.received[t.consumed]}, c);
    }
  }

  /// Resolve in-edge `eid` of Compute `op` on thread `ti`: an initial
  /// value, a local slot, or the oldest pending receive on a channel into
  /// this PE.
  OperandRef operand(const ProcessorProgram& p, std::size_t ti,
                     const Inst& op, EdgeId eid) {
    const Edge& e = g.edge(eid);
    const Inst src{e.src, op.iter - e.distance};
    OperandRef ref;
    if (src.iter < 0) {
      ref.kind = OperandRef::Kind::InitialValue;
      ref.initial = initial_value(e.src);
      return ref;
    }
    if (const auto it = computed.find(src);
        it != computed.end() && it->second.thread == ti) {
      ref.kind = OperandRef::Kind::LocalSlot;
      ref.index = it->second.slot;
      return ref;
    }
    if (const auto h = heads.find(RecvKey{eid, src}); h != heads.end()) {
      const ChannelId c = h->second;
      heads.erase(h);
      ++traffic[c].consumed;
      index_head(c);
      ref.kind = OperandRef::Kind::ChannelRecv;
      ref.index = c;  // provisional; finish() maps it to the final id
      ref.iter = src.iter;
      return ref;
    }
    for (const ChannelId c : inbound) {
      const Traffic& t = traffic[c];
      const auto pending =
          t.received.begin() + static_cast<std::ptrdiff_t>(t.consumed);
      if (t.key.edge == eid &&
          std::find(pending, t.received.end(), src) != t.received.end()) {
        reject("PE" + std::to_string(p.proc) + ": compute " + name(op) +
               " consumes " + name(src) +
               " out of channel order (FIFO: an older receive from PE" +
               std::to_string(t.key.src) + " is still pending)");
      }
    }
    reject("PE" + std::to_string(p.proc) + ": compute " + name(op) +
           " before operand " + name(src) + " is available");
  }

  /// The one pass over processor program `ti`.
  CompiledThread thread(const ProcessorProgram& p, std::size_t ti) {
    if (p.proc != static_cast<int>(ti)) {
      reject("program " + std::to_string(ti) + " claims PE" +
             std::to_string(p.proc) + " (programs are indexed by PE)");
    }
    CompiledThread out;
    out.proc = p.proc;
    inbound.clear();
    heads.clear();
    for (const Op& op : p.ops) {
      switch (op.kind) {
        case Op::Kind::Compute: {
          if (op.inst.iter < 0 ||
              op.inst.iter == std::numeric_limits<std::int64_t>::max()) {
            reject("PE" + std::to_string(p.proc) + ": compute " +
                   name(op.inst) + " at an out-of-range iteration");
          }
          CompiledOp c;
          c.kind = CompiledOp::Kind::Compute;
          c.node = op.inst.node;
          c.iter = op.inst.iter;
          c.first_operand = static_cast<std::uint32_t>(out.operands.size());
          for (const EdgeId eid : g.in_edges(op.inst.node)) {
            out.operands.push_back(operand(p, ti, op.inst, eid));
          }
          c.num_operands = static_cast<std::uint32_t>(out.operands.size()) -
                           c.first_operand;
          c.slot = out.num_slots++;
          const auto [it, fresh] =
              computed.try_emplace(op.inst, Home{ti, c.slot});
          if (!fresh) {
            reject("PE" + std::to_string(p.proc) + ": compute " +
                   name(op.inst) + " duplicates PE" +
                   std::to_string(it->second.thread) +
                   "'s (one writer per result entry)");
          }
          ++computes;
          out.ops.push_back(c);
          break;
        }
        case Op::Kind::Send: {
          const auto it = computed.find(op.inst);
          if (it == computed.end() || it->second.thread != ti) {
            reject("PE" + std::to_string(p.proc) + ": send of " +
                   name(op.inst) + " before it is computed on this PE");
          }
          Traffic& t = traffic[channel(op.edge, p.proc, op.peer)];
          if (t.final_id == kNoChannel) {
            t.final_id = static_cast<ChannelId>(channels.size());
            channels.push_back(ChannelDesc{op.edge, p.proc, op.peer, 0});
          }
          ++channels[t.final_id].messages;
          t.sent.push_back(op.inst);
          out.ops.push_back(CompiledOp{CompiledOp::Kind::Send, op.inst.node,
                                       op.inst.iter, it->second.slot,
                                       t.final_id, 0, 0});
          break;
        }
        case Op::Kind::Receive: {
          const ChannelId c = channel(op.edge, op.peer, p.proc);
          Traffic& t = traffic[c];
          if (t.received.empty()) inbound.push_back(c);
          t.received.push_back(op.inst);
          if (t.consumed + 1 == t.received.size()) index_head(c);
          break;
        }
      }
    }
    for (const ChannelId c : inbound) {
      const Traffic& t = traffic[c];
      if (t.consumed < t.received.size()) {
        reject("PE" + std::to_string(p.proc) + ": receive of " +
               name(t.received[t.consumed]) + " is never consumed");
      }
    }
    return out;
  }

  /// The checks that need every thread: per-channel traffic, then
  /// coverage of the iteration space.  Rewrites provisional ChannelRecv
  /// indices to final channel ids.
  void finish(CompiledProgram& cp) {
    for (Traffic& t : traffic) {
      if (t.sent == t.received) continue;
      std::sort(t.sent.begin(), t.sent.end());
      std::sort(t.received.begin(), t.received.end());
      const bool reordered = t.sent == t.received;
      reject("channel (edge " + std::to_string(t.key.edge) + ", PE" +
             std::to_string(t.key.src) + " -> PE" +
             std::to_string(t.key.dst) + ")" +
             (reordered ? " violates FIFO order"
                     : ": send/receive multisets differ (unmatched message)"));
    }
    // Every instance is computed at most once and at an iteration below
    // cp.iterations, so the count alone proves full coverage.
    const auto nodes = static_cast<std::int64_t>(g.num_nodes());
    if (nodes > 0 &&
        (computes % nodes != 0 || computes / nodes != cp.iterations)) {
      reject("program computes " + std::to_string(computes) + " of the " +
             std::to_string(nodes) + " x " + std::to_string(cp.iterations) +
             " instances of its iteration space");
    }
    cp.channels = std::move(channels);
    for (CompiledThread& t : cp.threads) {
      for (OperandRef& r : t.operands) {
        if (r.kind == OperandRef::Kind::ChannelRecv) {
          r.index = traffic[r.index].final_id;
        }
      }
    }
    check_progress(cp);
  }

  /// Dry-run the threads with per-channel unread counts.  Sends never
  /// block (each ring holds its channel's exact message count), so a
  /// thread stalls only on a ChannelRecv operand whose channel has nothing
  /// unread, and a stalled thread resumes only at a Send on that channel.
  /// If every unfinished thread stalls, the executor would hang forever.
  /// Each op and operand is visited once: O(ops + operands).
  void check_progress(const CompiledProgram& cp) const {
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    const std::size_t nt = cp.threads.size();
    std::vector<std::size_t> next_op(nt, 0);
    std::vector<std::uint32_t> next_operand(nt, 0);
    std::vector<std::int64_t> unread(cp.channels.size(), 0);
    std::vector<std::size_t> waiter(cp.channels.size(), kNone);
    std::vector<std::size_t> runnable(nt);
    for (std::size_t ti = 0; ti < nt; ++ti) runnable[ti] = ti;
    std::size_t finished = 0;
    while (!runnable.empty()) {
      const std::size_t ti = runnable.back();
      runnable.pop_back();
      const CompiledThread& t = cp.threads[ti];
      bool stalled = false;
      while (!stalled && next_op[ti] < t.ops.size()) {
        const CompiledOp& op = t.ops[next_op[ti]];
        if (op.kind == CompiledOp::Kind::Send) {
          ++unread[op.chan];
          if (waiter[op.chan] != kNone) {
            runnable.push_back(waiter[op.chan]);
            waiter[op.chan] = kNone;
          }
        }
        std::uint32_t& k = next_operand[ti];
        for (; k < op.num_operands; ++k) {
          const OperandRef& r = t.operands[op.first_operand + k];
          if (r.kind != OperandRef::Kind::ChannelRecv) continue;
          if (unread[r.index] == 0) {
            waiter[r.index] = ti;
            stalled = true;
            break;
          }
          --unread[r.index];
        }
        if (stalled) break;
        k = 0;
        ++next_op[ti];
      }
      if (!stalled) ++finished;
    }
    for (std::size_t ti = 0; finished < nt && ti < nt; ++ti) {
      const CompiledThread& t = cp.threads[ti];
      if (next_op[ti] == t.ops.size()) continue;
      const CompiledOp& op = t.ops[next_op[ti]];
      reject("deadlock: PE" + std::to_string(t.proc) + "'s compute " +
             name(Inst{op.node, op.iter}) +
             " waits forever on a receive (every unfinished PE is blocked "
             "on another)");
    }
  }
};

/// Liveness-based slot reassignment over one thread's straight-line op
/// stream.  Walk::thread assigned SSA slots (each compute writes a fresh
/// one); here every slot is returned to a free list at its last
/// read, and writes draw from that list, so num_slots shrinks from one per
/// value instance to the thread's maximum number of simultaneously live
/// values.
///
/// Within one Compute, operand reads happen before the destination write
/// (both the executor and the generated C gather operands into locals
/// first), so a slot whose last read is op i may be reused as op i's own
/// destination.  A slot never read at all (a compute kept only for the
/// result array) is freed immediately after its write.
/// The free list is LIFO: the most recently dead slot is reused first,
/// which keeps the working set cache-resident and the steady-state
/// assignment periodic (so c_codegen's period detector still rolls it).
void reuse_slots(CompiledThread& t) {
  constexpr std::size_t kNever = static_cast<std::size_t>(-1);
  std::vector<std::size_t> last_read(t.num_slots, kNever);
  for (std::size_t i = 0; i < t.ops.size(); ++i) {
    const CompiledOp& op = t.ops[i];
    if (op.kind == CompiledOp::Kind::Send) {
      last_read[op.slot] = i;
    } else if (op.kind == CompiledOp::Kind::Compute) {
      for (std::uint32_t j = 0; j < op.num_operands; ++j) {
        const OperandRef& r = t.operands[op.first_operand + j];
        if (r.kind == OperandRef::Kind::LocalSlot) last_read[r.index] = i;
      }
    }
  }
  // dies_at[i]: SSA slots whose last read is op i.
  std::vector<std::vector<SlotId>> dies_at(t.ops.size());
  for (SlotId s = 0; s < t.num_slots; ++s) {
    if (last_read[s] != kNever) {
      dies_at[last_read[s]].push_back(s);
    }
  }

  std::vector<SlotId> remap(t.num_slots, 0);
  std::vector<SlotId> free_list;
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < t.ops.size(); ++i) {
    CompiledOp& op = t.ops[i];
    // Reads first: rewrite through the current mapping.
    if (op.kind == CompiledOp::Kind::Send) {
      op.slot = remap[op.slot];
    } else if (op.kind == CompiledOp::Kind::Compute) {
      for (std::uint32_t j = 0; j < op.num_operands; ++j) {
        OperandRef& r = t.operands[op.first_operand + j];
        if (r.kind == OperandRef::Kind::LocalSlot) r.index = remap[r.index];
      }
    }
    // Slots dead after this op's reads become available — including for
    // this op's own write.
    for (const SlotId s : dies_at[i]) free_list.push_back(remap[s]);
    // The write draws from the free list.
    if (op.kind == CompiledOp::Kind::Compute) {
      SlotId ns;
      if (free_list.empty()) {
        ns = next++;
      } else {
        ns = free_list.back();
        free_list.pop_back();
      }
      const SlotId old = op.slot;
      remap[old] = ns;
      op.slot = ns;
      if (last_read[old] == kNever) free_list.push_back(ns);  // dead write
    }
  }
  MIMD_ENSURES(next <= t.num_slots);  // reuse never allocates more
  t.num_slots = next;
}

/// SplitMix64 finalizer — the same mixer support/random.cpp builds on.
/// Each field is mixed before being folded so nearby integers (node ids,
/// iterations) don't cancel; the fold itself is order-sensitive.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct StructuralHasher {
  std::uint64_t state = 0x2545F4914F6CDD1DULL;
  void fold(std::uint64_t v) { state = mix64(state ^ mix64(v)); }
  void fold_signed(std::int64_t v) { fold(static_cast<std::uint64_t>(v)); }
};

}  // namespace

std::uint64_t structural_hash(const Ddg& g) {
  StructuralHasher h;
  // Node/edge id order is stable: the graph is append-only.
  h.fold(g.num_nodes());
  for (const Node& n : g.nodes()) h.fold_signed(n.latency);
  h.fold(g.num_edges());
  for (const Edge& e : g.edges()) {
    h.fold(e.src);
    h.fold(e.dst);
    h.fold_signed(e.distance);
    h.fold_signed(e.comm_cost);
  }
  return h.state;
}

bool structurally_equivalent(const Ddg& a, const Ddg& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    if (a.node(v).latency != b.node(v).latency) return false;
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    const Edge& ea = a.edge(e);
    const Edge& eb = b.edge(e);
    if (ea.src != eb.src || ea.dst != eb.dst ||
        ea.distance != eb.distance || ea.comm_cost != eb.comm_cost) {
      return false;
    }
  }
  return true;
}

std::uint64_t structural_hash(const PartitionedProgram& prog, const Ddg& g,
                              const CompileOptions& opts) {
  return structural_hash(prog, structural_hash(g), opts);
}

std::uint64_t structural_hash(const PartitionedProgram& prog,
                              std::uint64_t graph_hash,
                              const CompileOptions& opts) {
  StructuralHasher h;
  h.fold(graph_hash);
  // The partitioned program, in processor then program order.
  h.fold_signed(prog.processors);
  h.fold(prog.programs.size());
  for (const ProcessorProgram& p : prog.programs) {
    h.fold_signed(p.proc);
    h.fold(p.ops.size());
    for (const Op& op : p.ops) {
      h.fold(static_cast<std::uint64_t>(op.kind));
      h.fold(op.inst.node);
      h.fold_signed(op.inst.iter);
      h.fold(op.edge);
      h.fold_signed(op.peer);
    }
  }
  h.fold(static_cast<std::uint64_t>(opts.opt));
  return h.state;
}

std::size_t CompiledProgram::count(CompiledOp::Kind k) const {
  std::size_t n = 0;
  for (const CompiledThread& t : threads) {
    for (const CompiledOp& op : t.ops) {
      if (op.kind == k) ++n;
    }
  }
  return n;
}

std::size_t CompiledProgram::total_slots() const {
  std::size_t n = 0;
  for (const CompiledThread& t : threads) n += t.num_slots;
  return n;
}

std::size_t CompiledProgram::total_slots_ssa() const {
  std::size_t n = 0;
  for (const CompiledThread& t : threads) n += t.num_slots_ssa;
  return n;
}

CompiledProgram compile_program(const PartitionedProgram& prog, const Ddg& g,
                                const CompileOptions&) {
  CompiledProgram cp;
  cp.processors = prog.processors;
  Walk w(g);
  w.computed.reserve(prog.total_ops());
  for (std::size_t i = 0; i < prog.programs.size(); ++i) {
    const ProcessorProgram& p = prog.programs[i];
    CompiledThread t = w.thread(p, i);
    if (t.ops.empty()) continue;
    t.num_slots_ssa = t.num_slots;
    reuse_slots(t);
    for (const CompiledOp& op : t.ops) {
      if (op.kind == CompiledOp::Kind::Compute) {
        cp.iterations = std::max(cp.iterations, op.iter + 1);
      }
    }
    cp.threads.push_back(std::move(t));
  }
  w.finish(cp);
  return cp;
}

}  // namespace mimd
