#include "core/registry.h"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/binary_io.h"
#include "util/require.h"

namespace diagnet::core {

namespace {
constexpr std::uint64_t kFileMagic = 0x44474e4554'4d4f44ULL;  // "DGNET MOD"
// v2: the model payload is wrapped in {checksum, length, bytes} so any
// truncation or in-place corruption — including flipped bits inside weight
// doubles, which no structural check can see — is rejected cleanly instead
// of silently loading a garbage model.
constexpr std::uint64_t kFileVersion = 2;
}  // namespace

util::Status try_save_model(const DiagNetModel& model, std::ostream& os) {
  if (!model.trained())
    return util::Status::failed_precondition(
        "cannot save an untrained model");
  std::ostringstream payload_os(std::ios::binary);
  {
    util::BinaryWriter payload_writer(payload_os);
    model.save(payload_writer);
  }
  const std::string payload = std::move(payload_os).str();

  util::BinaryWriter writer(os);
  writer.write_u64(kFileMagic);
  writer.write_u64(kFileVersion);
  writer.write_u64(util::fnv1a64(payload.data(), payload.size()));
  writer.write_string(payload);
  if (!os)
    return util::Status::data_loss("model registry: write failed");
  return {};
}

util::Status try_save_model_file(const DiagNetModel& model,
                                 const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os)
    return util::Status::not_found("model registry: cannot open " + path);
  if (util::Status s = try_save_model(model, os); !s.ok()) return s;
  if (!os)
    return util::Status::data_loss("model registry: write failed: " + path);
  return {};
}

util::StatusOr<std::unique_ptr<DiagNetModel>> try_load_model(
    std::istream& is, const data::FeatureSpace& fs, ModelBundleInfo* info) {
  // binary_io and DiagNetModel::load signal malformed bytes by throwing;
  // the registry is where those are converted into one Status channel.
  try {
    util::BinaryReader reader(is);
    reader.expect_u64(kFileMagic, "model file magic");
    const std::uint64_t version = reader.read_u64();
    if (version != kFileVersion)
      return util::Status::data_loss(
          "model registry: unsupported version");
    const std::uint64_t checksum = reader.read_u64();
    std::string payload = reader.read_string();
    if (util::fnv1a64(payload.data(), payload.size()) != checksum)
      return util::Status::data_loss(
          "model registry: checksum mismatch (corrupt model bundle)");

    // The stream takes the payload over, so the bundle is held once.
    std::istringstream payload_is(std::move(payload), std::ios::binary);
    util::BinaryReader payload_reader(payload_is);
    auto model = DiagNetModel::load(payload_reader, fs);
    if (info != nullptr) {
      info->checksum = checksum;
      info->version = version;
    }
    return model;
  } catch (const std::exception& e) {
    return util::Status::data_loss(e.what());
  }
}

util::StatusOr<std::unique_ptr<DiagNetModel>> try_load_model_file(
    const std::string& path, const data::FeatureSpace& fs,
    ModelBundleInfo* info) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    return util::Status::not_found("model registry: cannot open " + path);
  return try_load_model(is, fs, info);
}

}  // namespace diagnet::core
