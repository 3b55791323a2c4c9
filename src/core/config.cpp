// Config text grammar (one directive per line, '#' starts a comment):
//
//   node <name>
//   role sender|receiver
//   codec <codec-name>
//   chunk_bytes <n>
//   queue_capacity <n>
//   recovery [reconnect=on|off] [max_attempts=<n>] [backoff_us=<n>]
//            [max_backoff_us=<n>] [multiplier=<f>] [jitter=<f>]
//            [retry_budget_us=<n>]
//            [corrupt_limit=<n>] [degrade_watermark=<n>] [watchdog_ms=<n>]
//   overload [budget_bytes=<n>] [credit_window=<n>]
//            [shed=block|drop_newest|drop_oldest|priority_evict]
//            [high_watermark=<n>] [low_watermark=<n>] [drain_deadline_ms=<n>]
//            [slow_floor=<n>] [slow_grace_ms=<n>] [default_priority=<n>]
//   priority stream=<id> value=<n>
//   health [window_ms=<n>] [ewma_alpha=<f>] [degraded_ratio=<f>]
//          [failed_ratio=<f>] [breach_windows=<n>] [recover_windows=<n>]
//          [baseline_windows=<n>]
//   observe [trace=on|off] [ring_capacity=<n>] [latency=on|off] [sample_ms=<n>]
//   resume session=<n> [ack_interval=<n>]
//   cluster gateways=<n> self=<i> [vnodes=<n>] [heartbeat_ms=<n>]
//           [miss_windows=<n>]
//   rebalance window_ms=<n> [imbalance_ratio=<f>] [hysteresis_windows=<n>]
//             [cooldown_windows=<n>] [max_concurrent=<n>]
//             [drain_degraded=on|off]
//   scrub cadence_ms=<n> [range_records=<n>] [budget_records=<n>]
//         [repair_concurrency=<n>]
//   fastpath [rings=on|off]
//   task <type> count=<n> exec=<domain|os>[,<domain|os>...] mem=<domain|os> [stream=<id>]
//
// Every directive except `priority` and `task` may appear at most once —
// `node`, `role`, `codec`, `chunk_bytes` and `queue_capacity` included,
// not just the policy blocks; a duplicate is a parse error (silent
// last-wins hid config merge mistakes).
//
// Values are checked whole: a number must fill its field's own type with
// nothing left over (`-1` is no `<n>`, `12abc` is no number, 2^32 does not
// fit a 32-bit field), a single-value directive takes exactly one word, and
// doubles are written in their shortest round-trip form so that
// parse(serialize(c)) == c.
//
// Everything but `priority` and `task` is one table, directives() below:
// one descriptor per directive naming the NodeConfig member it fills and
// one row per attribute (key + member path). The value syntax of a row
// follows from its field's C++ type, and one routine parses, rejects
// duplicates and serializes every row.
//
// Example (the paper's NUMA-aware receiver for one of four streams):
//   node lynxdtn
//   role receiver
//   codec lz4
//   task receive count=4 exec=1 mem=1 stream=0
//   task decompress count=4 exec=0 mem=0 stream=0
#include "core/config.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "codec/codec.h"

namespace numastream {
namespace {

// ---------------------------------------------------------------- values

// The words of each enumerated kind, in the order error hints list them.
constexpr std::pair<bool, std::string_view> kSwitchNames[] = {{true, "on"},
                                                              {false, "off"}};
constexpr std::pair<NodeRole, std::string_view> kRoleNames[] = {
    {NodeRole::kSender, "sender"}, {NodeRole::kReceiver, "receiver"}};
constexpr std::pair<TaskType, std::string_view> kTaskTypeNames[] = {
    {TaskType::kCompress, "compress"},
    {TaskType::kSend, "send"},
    {TaskType::kReceive, "receive"},
    {TaskType::kDecompress, "decompress"}};
constexpr std::pair<ShedPolicy, std::string_view> kShedPolicyNames[] = {
    {ShedPolicy::kBlock, "block"},
    {ShedPolicy::kDropNewest, "drop_newest"},
    {ShedPolicy::kDropOldest, "drop_oldest"},
    {ShedPolicy::kPriorityEvict, "priority_evict"}};

constexpr const auto& names_of(std::type_identity<bool>) { return kSwitchNames; }
constexpr const auto& names_of(std::type_identity<NodeRole>) { return kRoleNames; }
constexpr const auto& names_of(std::type_identity<TaskType>) { return kTaskTypeNames; }
constexpr const auto& names_of(std::type_identity<ShedPolicy>) { return kShedPolicyNames; }

template <typename T>
concept Enumerated = requires { names_of(std::type_identity<T>{}); };

template <typename T>
concept Number = std::is_arithmetic_v<T> && !Enumerated<T>;

template <Enumerated T>
bool parse_value(std::string_view text, T& out) {
  for (const auto& [value, name] : names_of(std::type_identity<T>{})) {
    if (text == name) {
      out = value;
      return true;
    }
  }
  return false;
}

template <Enumerated T>
std::string_view name_of(T value) {
  for (const auto& [candidate, name] : names_of(std::type_identity<T>{})) {
    if (candidate == value) {
      return name;
    }
  }
  return "?";
}

/// Appended to a bad-value error: " (want a|b|...)" for an enumerated kind.
template <typename T>
std::string want() {
  std::string out;
  if constexpr (Enumerated<T>) {
    for (const auto& [value, name] : names_of(std::type_identity<T>{})) {
      out += out.empty() ? " (want " : "|";
      out += name;
    }
    out += ')';
  }
  return out;
}

// The whole of `text` as a T: no sign on an unsigned type, no bytes left
// over, no overflow, and only finite doubles.
template <Number T>
bool parse_value(std::string_view text, T& out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    return false;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      return false;
    }
  }
  out = value;
  return true;
}

bool parse_value(std::string_view text, std::string& out) {
  out = text;
  return true;
}

// Integers in decimal; doubles in the shortest text that parses back to the
// same bits.
template <Number T>
void write_value(std::string& out, T value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

template <Enumerated T>
void write_value(std::string& out, T value) {
  out += name_of(value);
}

void write_value(std::string& out, const std::string& value) { out += value; }

/// Parses `value` into `field`, or says why it cannot.
template <typename T>
std::string assign(std::string_view key, std::string_view value, T& field) {
  if (parse_value(value, field)) {
    return {};
  }
  return "bad value for " + std::string(key) + ": '" + std::string(value) +
         "'" + want<T>();
}

template <typename T>
void write_attribute(std::string& out, std::string_view key, const T& value) {
  out += ' ';
  out += key;
  out += '=';
  write_value(out, value);
}

// ---------------------------------------------------------------- tokens

/// The whitespace-separated words of `line`.
std::vector<std::string_view> words_of(std::string_view line) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  std::vector<std::string_view> words;
  std::size_t start = line.find_first_not_of(kSpace);
  while (start != std::string_view::npos) {
    const std::size_t end = line.find_first_of(kSpace, start);
    words.push_back(line.substr(start, end - start));
    start = line.find_first_not_of(kSpace, end);
  }
  return words;
}

/// Splits each `key=value` word and hands the halves to `apply`, which
/// returns an error text ("" on success). Stops at the first error.
template <typename Apply>
std::string for_each_attribute(std::span<const std::string_view> words, Apply&& apply) {
  for (const std::string_view word : words) {
    const std::size_t eq = word.find('=');
    if (eq == std::string_view::npos) {
      return "malformed attribute '" + std::string(word) + "'";
    }
    std::string error = apply(word.substr(0, eq), word.substr(eq + 1));
    if (!error.empty()) {
      return error;
    }
  }
  return {};
}

std::string unknown_attribute(std::string_view key) {
  return "unknown attribute '" + std::string(key) + "'";
}

// ---------------------------------------------------------------- table

/// One attribute row: its key ("" for the value of a single-value
/// directive) and the parser/writer of the field it names.
struct Attribute {
  std::string_view key;
  std::string (*parse)(NodeConfig&, std::string_view key, std::string_view value);
  void (*write)(const NodeConfig&, std::string&);
};

struct Directive {
  std::string_view name;
  /// In serialization order.
  std::vector<Attribute> rows;
  /// Policy blocks are written only when some knob moved, so a config that
  /// never mentions one serializes byte-identically to the runtime that
  /// predates it; nullptr means always written.
  bool (*is_default)(const NodeConfig&);
  /// Lines written right after this directive's own (overload's priorities).
  void (*trailer)(const NodeConfig&, std::string&);
};

/// A row in the making: its key and the member path from the directive's
/// block down to the field.
template <auto... Path>
struct Field {
  std::string_view key;
};

template <auto... Path>
Field<Path...> field(std::string_view key) {
  return {key};
}

/// Erases a row of the block NodeConfig::*Block; the value kind is the
/// field's own type.
template <auto Block, auto... Path>
Attribute row(Field<Path...> row_field) {
  return {row_field.key,
          [](NodeConfig& config, std::string_view key, std::string_view value) {
            return assign(key, value, ((config.*Block) .* ... .* Path));
          },
          [](const NodeConfig& config, std::string& out) {
            write_value(out, ((config.*Block) .* ... .* Path));
          }};
}

/// `name value`, filling NodeConfig::*Member.
template <auto Member>
Directive single(std::string_view name) {
  return {name, {row<Member>(field<>(""))}, nullptr, nullptr};
}

/// `name key=value...`, filling the policy block NodeConfig::*Block.
template <auto Block, auto Trailer = nullptr, typename... Fields>
Directive policy(std::string_view name, Fields... fields) {
  return {name,
          {row<Block>(fields)...},
          [](const NodeConfig& config) { return (config.*Block).is_default(); },
          Trailer};
}

// `priority` and `task` repeat and carry extra syntax, so they have their
// own handlers instead of table rows; their words are spelled here once.
constexpr std::string_view kPriority = "priority";
constexpr std::string_view kPriorityStream = "stream";
constexpr std::string_view kPriorityValue = "value";
constexpr std::string_view kTask = "task";
constexpr std::string_view kTaskCount = "count";
constexpr std::string_view kTaskExec = "exec";
constexpr std::string_view kTaskMem = "mem";
constexpr std::string_view kTaskStream = "stream";

void write_priorities(const NodeConfig& config, std::string& out) {
  for (const StreamPriority& entry : config.overload.priorities) {
    out += kPriority;
    write_attribute(out, kPriorityStream, entry.stream_id);
    write_attribute(out, kPriorityValue, entry.priority);
    out += '\n';
  }
}

/// Every directive but `priority` and `task`, in serialization order.
const std::vector<Directive>& directives() {
  static const std::vector<Directive> table = {
      single<&NodeConfig::node_name>("node"),
      single<&NodeConfig::role>("role"),
      single<&NodeConfig::codec_name>("codec"),
      single<&NodeConfig::chunk_bytes>("chunk_bytes"),
      single<&NodeConfig::queue_capacity>("queue_capacity"),
      policy<&NodeConfig::recovery>(
          "recovery",
          field<&RecoveryConfig::reconnect>("reconnect"),
          field<&RecoveryConfig::retry, &RetryPolicy::max_attempts>("max_attempts"),
          field<&RecoveryConfig::retry, &RetryPolicy::initial_backoff_us>("backoff_us"),
          field<&RecoveryConfig::retry, &RetryPolicy::max_backoff_us>("max_backoff_us"),
          field<&RecoveryConfig::retry, &RetryPolicy::multiplier>("multiplier"),
          field<&RecoveryConfig::retry, &RetryPolicy::jitter>("jitter"),
          field<&RecoveryConfig::retry, &RetryPolicy::max_elapsed_us>("retry_budget_us"),
          field<&RecoveryConfig::max_consecutive_corrupt>("corrupt_limit"),
          field<&RecoveryConfig::degrade_watermark>("degrade_watermark"),
          field<&RecoveryConfig::watchdog_ms>("watchdog_ms")),
      policy<&NodeConfig::overload, &write_priorities>(
          "overload",
          field<&OverloadConfig::budget_bytes>("budget_bytes"),
          field<&OverloadConfig::credit_window>("credit_window"),
          field<&OverloadConfig::shed_policy>("shed"),
          field<&OverloadConfig::high_watermark>("high_watermark"),
          field<&OverloadConfig::low_watermark>("low_watermark"),
          field<&OverloadConfig::drain_deadline_ms>("drain_deadline_ms"),
          field<&OverloadConfig::slow_stream_floor>("slow_floor"),
          field<&OverloadConfig::slow_grace_ms>("slow_grace_ms"),
          field<&OverloadConfig::default_priority>("default_priority")),
      policy<&NodeConfig::health>(
          "health",
          field<&HealthConfig::window_ms>("window_ms"),
          field<&HealthConfig::ewma_alpha>("ewma_alpha"),
          field<&HealthConfig::degraded_ratio>("degraded_ratio"),
          field<&HealthConfig::failed_ratio>("failed_ratio"),
          field<&HealthConfig::breach_windows>("breach_windows"),
          field<&HealthConfig::recover_windows>("recover_windows"),
          field<&HealthConfig::baseline_windows>("baseline_windows")),
      policy<&NodeConfig::observe>(
          "observe",
          field<&ObserveConfig::trace>("trace"),
          field<&ObserveConfig::ring_capacity>("ring_capacity"),
          field<&ObserveConfig::latency>("latency"),
          field<&ObserveConfig::sample_ms>("sample_ms")),
      policy<&NodeConfig::resume>(
          "resume",
          field<&ResumeConfig::session>("session"),
          field<&ResumeConfig::ack_interval>("ack_interval")),
      policy<&NodeConfig::cluster>(
          "cluster",
          field<&ClusterConfig::gateways>("gateways"),
          field<&ClusterConfig::self>("self"),
          field<&ClusterConfig::vnodes>("vnodes"),
          field<&ClusterConfig::heartbeat_ms>("heartbeat_ms"),
          field<&ClusterConfig::miss_windows>("miss_windows")),
      policy<&NodeConfig::rebalance>(
          "rebalance",
          field<&RebalanceConfig::window_ms>("window_ms"),
          field<&RebalanceConfig::imbalance_ratio>("imbalance_ratio"),
          field<&RebalanceConfig::hysteresis_windows>("hysteresis_windows"),
          field<&RebalanceConfig::cooldown_windows>("cooldown_windows"),
          field<&RebalanceConfig::max_concurrent>("max_concurrent"),
          field<&RebalanceConfig::drain_degraded>("drain_degraded")),
      policy<&NodeConfig::scrub>(
          "scrub",
          field<&ScrubConfig::cadence_ms>("cadence_ms"),
          field<&ScrubConfig::range_records>("range_records"),
          field<&ScrubConfig::budget_records>("budget_records"),
          field<&ScrubConfig::repair_concurrency>("repair_concurrency")),
      policy<&NodeConfig::fastpath>(
          "fastpath",
          field<&FastPathConfig::rings>("rings")),
  };
  return table;
}

/// One line of a table directive; `words` follow the directive name.
std::string parse_directive(const Directive& directive,
                            std::span<const std::string_view> words,
                            NodeConfig& config) {
  const Attribute& first = directive.rows.front();
  if (first.key.empty()) {
    if (words.size() != 1) {
      return "'" + std::string(directive.name) + "' takes exactly one value";
    }
    return first.parse(config, directive.name, words.front());
  }
  return for_each_attribute(words, [&](std::string_view key, std::string_view value) {
    const auto row = std::find_if(directive.rows.begin(), directive.rows.end(),
                                  [&](const Attribute& a) { return a.key == key; });
    return row == directive.rows.end() ? unknown_attribute(key)
                                       : row->parse(config, key, value);
  });
}

void write_directive(const Directive& directive, const NodeConfig& config,
                     std::string& out) {
  out += directive.name;
  for (const Attribute& attribute : directive.rows) {
    out += ' ';
    if (!attribute.key.empty()) {
      out += attribute.key;
      out += '=';
    }
    attribute.write(config, out);
  }
  out += '\n';
}

// ---------------------------------------------------------------- priority, task

std::string parse_priority(std::span<const std::string_view> words, NodeConfig& config) {
  std::optional<std::uint32_t> stream;
  std::optional<int> value;
  std::string error =
      for_each_attribute(words, [&](std::string_view key, std::string_view text) {
        if (key == kPriorityStream) {
          return assign(key, text, stream.emplace());
        }
        if (key == kPriorityValue) {
          return assign(key, text, value.emplace());
        }
        return unknown_attribute(key);
      });
  if (!error.empty()) {
    return error;
  }
  if (!stream || !value) {
    return "priority needs stream= and value=";
  }
  config.overload.priorities.push_back({.stream_id = *stream, .priority = *value});
  return {};
}

std::string domain_to_token(int domain) {
  return domain == NumaBinding::kOsChoice ? "os" : std::to_string(domain);
}

std::string domain_from_token(std::string_view token, int& domain) {
  if (token == "os") {
    domain = NumaBinding::kOsChoice;
    return {};
  }
  int value = 0;
  if (!parse_value(token, value) || value < 0) {
    return "bad domain '" + std::string(token) + "'";
  }
  domain = value;
  return {};
}

std::string parse_task(std::span<const std::string_view> words, NodeConfig& config) {
  if (words.empty()) {
    return "missing task type";
  }
  auto type = task_type_from_string(std::string(words.front()));
  if (!type.ok()) {
    return type.status().message();
  }
  TaskGroupConfig group{.type = type.value(), .bindings = {}};
  std::optional<int> count;
  int memory_domain = NumaBinding::kOsChoice;
  std::vector<int> exec_domains;
  std::string error = for_each_attribute(
      words.subspan(1), [&](std::string_view key, std::string_view value) {
        if (key == kTaskCount) {
          return assign(key, value, count.emplace());
        }
        if (key == kTaskExec) {
          for (std::size_t start = 0; start < value.size();) {
            const std::size_t comma = value.find(',', start);
            std::string bad = domain_from_token(value.substr(start, comma - start),
                                                exec_domains.emplace_back());
            if (!bad.empty() || comma == std::string_view::npos) {
              return bad;
            }
            start = comma + 1;
          }
          return std::string();
        }
        if (key == kTaskMem) {
          return domain_from_token(value, memory_domain);
        }
        if (key == kTaskStream) {
          return assign(key, value, group.stream_id);
        }
        return unknown_attribute(key);
      });
  if (!error.empty()) {
    return error;
  }
  if (!count) {
    return "task missing count=";
  }
  group.count = *count;
  if (exec_domains.empty()) {
    exec_domains.push_back(NumaBinding::kOsChoice);
  }
  for (const int domain : exec_domains) {
    group.bindings.push_back(
        NumaBinding{.execution_domain = domain, .memory_domain = memory_domain});
  }
  config.tasks.push_back(std::move(group));
  return {};
}

void write_task(const TaskGroupConfig& group, std::string& out) {
  out += kTask;
  out += ' ';
  out += to_string(group.type);
  write_attribute(out, kTaskCount, group.count);
  std::string exec;
  for (const NumaBinding& binding : group.bindings) {
    exec += (exec.empty() ? "" : ",") + domain_to_token(binding.execution_domain);
  }
  write_attribute(out, kTaskExec, exec);
  write_attribute(out, kTaskMem, domain_to_token(group.bindings.front().memory_domain));
  if (group.stream_id >= 0) {
    write_attribute(out, kTaskStream, group.stream_id);
  }
  out += '\n';
}

}  // namespace

std::string to_string(TaskType type) { return std::string(name_of(type)); }

Result<TaskType> task_type_from_string(const std::string& text) {
  TaskType type{};
  if (!parse_value(text, type)) {
    return invalid_argument_error("config: unknown task type '" + text + "'");
  }
  return type;
}

std::string to_string(ShedPolicy policy) { return std::string(name_of(policy)); }

Result<ShedPolicy> shed_policy_from_string(const std::string& text) {
  ShedPolicy policy{};
  if (!parse_value(text, policy)) {
    return invalid_argument_error("config: unknown shed policy '" + text + "'" +
                                  want<ShedPolicy>());
  }
  return policy;
}

int OverloadConfig::priority_of(std::uint32_t stream_id) const {
  for (const auto& entry : priorities) {
    if (entry.stream_id == stream_id) {
      return entry.priority;
    }
  }
  return default_priority;
}

int NodeConfig::thread_count(TaskType type, int stream_id) const {
  int total = 0;
  for (const auto& group : tasks) {
    if (group.type == type && (stream_id < 0 || group.stream_id == stream_id ||
                               group.stream_id < 0)) {
      total += group.count;
    }
  }
  return total;
}

Status NodeConfig::validate(const MachineTopology& topo) const {
  if (node_name.empty()) {
    return invalid_argument_error("config: empty node name");
  }
  if (codec_by_name(codec_name) == nullptr) {
    return invalid_argument_error("config: unknown codec '" + codec_name + "'");
  }
  if (chunk_bytes == 0) {
    return invalid_argument_error("config: zero chunk size");
  }
  if (queue_capacity == 0) {
    return invalid_argument_error("config: zero queue capacity");
  }
  {
    const Status retry_ok = recovery.retry.validate();
    if (!retry_ok.is_ok()) {
      return retry_ok;
    }
  }
  if (recovery.max_consecutive_corrupt <= 0) {
    return invalid_argument_error("config: corrupt_limit must be positive");
  }
  if (recovery.degrade_watermark > queue_capacity) {
    return invalid_argument_error(
        "config: degrade_watermark exceeds queue_capacity");
  }
  if (overload.credit_window == 1) {
    return invalid_argument_error(
        "config: credit_window must be 0 (off) or >= 2 so replenishment "
        "grants are never empty");
  }
  if (overload.high_watermark > queue_capacity) {
    return invalid_argument_error(
        "config: high_watermark exceeds queue_capacity");
  }
  if (overload.low_watermark > overload.high_watermark) {
    return invalid_argument_error(
        "config: low_watermark exceeds high_watermark (hysteresis band "
        "must be low <= high)");
  }
  if (overload.shed_policy != ShedPolicy::kBlock &&
      overload.high_watermark == 0) {
    return invalid_argument_error(
        "config: shed policy '" + to_string(overload.shed_policy) +
        "' needs high_watermark > 0 to ever engage");
  }
  if (overload.slow_stream_floor > 0 && overload.slow_grace_ms == 0) {
    return invalid_argument_error(
        "config: slow_floor needs slow_grace_ms > 0 (the sampling window)");
  }
  if (overload.budget_bytes > 0 && overload.budget_bytes < chunk_bytes) {
    return invalid_argument_error(
        "config: budget_bytes smaller than one chunk would deadlock "
        "admission");
  }
  for (std::size_t i = 0; i < overload.priorities.size(); ++i) {
    for (std::size_t j = i + 1; j < overload.priorities.size(); ++j) {
      if (overload.priorities[i].stream_id == overload.priorities[j].stream_id) {
        return invalid_argument_error(
            "config: duplicate priority for stream " +
            std::to_string(overload.priorities[i].stream_id));
      }
    }
  }
  if (health.enabled()) {
    if (health.window_ms == 0) {
      return invalid_argument_error(
          "config: health needs window_ms > 0 (the observation window)");
    }
    // Written as !(in range) so that NaN, which fails every comparison, is
    // rejected rather than slipping past each bound.
    if (!(health.ewma_alpha > 0 && health.ewma_alpha <= 1)) {
      return invalid_argument_error("config: ewma_alpha must be in (0, 1]");
    }
    if (!(health.failed_ratio > 0 && health.failed_ratio < health.degraded_ratio &&
          health.degraded_ratio < 1)) {
      return invalid_argument_error(
          "config: health ratios must satisfy 0 < failed_ratio < "
          "degraded_ratio < 1");
    }
    if (health.breach_windows <= 0 || health.recover_windows <= 0 ||
        health.baseline_windows <= 0) {
      return invalid_argument_error(
          "config: health window counts must be positive");
    }
  }
  if (observe.ring_capacity == 0) {
    return invalid_argument_error(
        "config: observe ring_capacity must be positive");
  }
  if (resume.enabled()) {
    if (resume.session == 0) {
      return invalid_argument_error(
          "config: resume needs session > 0 (the durable session identity)");
    }
    if (!recovery.reconnect) {
      return invalid_argument_error(
          "config: resume requires recovery reconnect=on (a restarted peer "
          "comes back through the redial path)");
    }
  }
  if (cluster.enabled()) {
    if (cluster.gateways < 2) {
      return invalid_argument_error(
          "config: cluster needs gateways >= 2 (a one-gateway ring has no "
          "buddy to fail over to)");
    }
    if (cluster.self >= cluster.gateways) {
      return invalid_argument_error(
          "config: cluster self must be in [0, gateways)");
    }
    if (cluster.vnodes == 0) {
      return invalid_argument_error(
          "config: cluster vnodes must be positive");
    }
    if (cluster.heartbeat_ms == 0) {
      return invalid_argument_error(
          "config: cluster heartbeat_ms must be positive");
    }
    if (cluster.miss_windows <= 0) {
      return invalid_argument_error(
          "config: cluster miss_windows must be positive");
    }
    if (!resume.enabled()) {
      return invalid_argument_error(
          "config: cluster requires a resume session (the replicated "
          "journals are the resume journals)");
    }
  }
  if (rebalance.enabled()) {
    if (rebalance.window_ms == 0) {
      return invalid_argument_error(
          "config: rebalance needs window_ms > 0 (the load-observation "
          "window)");
    }
    if (!(rebalance.imbalance_ratio > 1.0)) {
      return invalid_argument_error(
          "config: rebalance imbalance_ratio must be > 1 (a threshold at or "
          "below the mean would always fire)");
    }
    if (rebalance.hysteresis_windows <= 0 || rebalance.cooldown_windows <= 0) {
      return invalid_argument_error(
          "config: rebalance window counts must be positive");
    }
    if (rebalance.max_concurrent <= 0) {
      return invalid_argument_error(
          "config: rebalance max_concurrent must be positive");
    }
    if (!cluster.enabled()) {
      return invalid_argument_error(
          "config: rebalance requires a cluster (handoffs move streams "
          "between federated gateways)");
    }
  }
  if (scrub.enabled()) {
    if (scrub.cadence_ms == 0) {
      return invalid_argument_error(
          "config: scrub needs cadence_ms > 0 (the re-verification cadence)");
    }
    if (scrub.range_records == 0) {
      return invalid_argument_error(
          "config: scrub range_records must be positive (the repair "
          "granularity)");
    }
    if (scrub.budget_records == 0) {
      return invalid_argument_error(
          "config: scrub budget_records must be positive (a zero budget "
          "would never verify anything)");
    }
    if (scrub.repair_concurrency <= 0) {
      return invalid_argument_error(
          "config: scrub repair_concurrency must be positive");
    }
    if (!resume.enabled()) {
      return invalid_argument_error(
          "config: scrub requires a resume session (there is no journal to "
          "re-verify without one)");
    }
  }
  if (fastpath.rings && (overload.shed_policy == ShedPolicy::kDropOldest ||
                         overload.shed_policy == ShedPolicy::kPriorityEvict)) {
    return invalid_argument_error(
        "config: fastpath rings=on is incompatible with shed policy '" +
        to_string(overload.shed_policy) +
        "' (a lock-free ring cannot evict interior elements; use block or "
        "drop_newest)");
  }
  if (tasks.empty()) {
    return invalid_argument_error("config: no task groups");
  }
  for (const auto& group : tasks) {
    if (group.count <= 0) {
      return invalid_argument_error("config: non-positive thread count for " +
                                    to_string(group.type));
    }
    if (group.bindings.empty()) {
      return invalid_argument_error("config: task group without bindings");
    }
    for (const auto& binding : group.bindings) {
      if (!binding.os_managed() && !topo.domain(binding.execution_domain).ok()) {
        return invalid_argument_error("config: task " + to_string(group.type) +
                                      " pinned to unknown domain " +
                                      std::to_string(binding.execution_domain));
      }
    }
    const bool sender_task =
        group.type == TaskType::kCompress || group.type == TaskType::kSend;
    if (sender_task != (role == NodeRole::kSender)) {
      return invalid_argument_error("config: task " + to_string(group.type) +
                                    " does not belong on a " +
                                    (role == NodeRole::kSender ? std::string("sender")
                                                               : std::string("receiver")));
    }
  }
  return Status::ok();
}


std::string NodeConfig::serialize() const {
  std::string out;
  for (const Directive& directive : directives()) {
    if (directive.is_default != nullptr && directive.is_default(*this)) {
      continue;
    }
    write_directive(directive, *this, out);
    if (directive.trailer != nullptr) {
      directive.trailer(*this, out);
    }
  }
  for (const auto& group : tasks) {
    write_task(group, out);
  }
  return out;
}

Result<NodeConfig> NodeConfig::parse(const std::string& text) {
  const std::vector<Directive>& table = directives();
  NodeConfig config;
  std::vector<bool> seen(table.size(), false);

  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::vector<std::string_view> words =
        words_of(std::string_view(line).substr(0, line.find('#')));
    if (words.empty()) {
      continue;  // blank line
    }
    const std::string_view name = words.front();
    const std::span<const std::string_view> rest(words.begin() + 1, words.end());
    std::string error;
    if (name == kPriority) {
      error = parse_priority(rest, config);
    } else if (name == kTask) {
      error = parse_task(rest, config);
    } else {
      const auto directive =
          std::find_if(table.begin(), table.end(),
                       [&](const Directive& d) { return d.name == name; });
      if (directive == table.end()) {
        error = "unknown directive '" + std::string(name) + "'";
      } else if (seen[directive - table.begin()]) {
        error = "duplicate '" + std::string(name) +
                "' directive (each directive may appear at most once)";
      } else {
        seen[directive - table.begin()] = true;
        error = parse_directive(*directive, rest, config);
      }
    }
    if (!error.empty()) {
      return invalid_argument_error("config line " + std::to_string(line_no) +
                                    ": " + error);
    }
  }
  if (config.node_name.empty()) {
    return invalid_argument_error("config: missing 'node' directive");
  }
  return config;
}

}  // namespace numastream
