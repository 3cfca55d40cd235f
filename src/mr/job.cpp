#include "mr/job.hpp"

#include "mr/frame_plan.hpp"

namespace vrmr::mr {

const char* to_string(BarrierMode mode) {
  switch (mode) {
    case BarrierMode::Global: return "global";
    case BarrierMode::PerReducer: return "per-reducer";
  }
  return "?";
}

void JobConfig::validate() const {
  VRMR_CHECK_MSG(value_size > 0, "JobConfig.value_size must be set");
  VRMR_CHECK_MSG(domain.num_keys > 0, "JobConfig.domain.num_keys must be set");
}

Job::Job(cluster::Cluster& cluster, JobConfig config)
    : plan_(std::make_unique<FramePlan>(cluster, std::move(config))) {}

Job::~Job() = default;

void Job::set_mapper_factory(MapperFactory factory) {
  plan_->set_mapper_factory(std::move(factory));
}

void Job::set_reducer_factory(ReducerFactory factory) {
  plan_->set_reducer_factory(std::move(factory));
}

void Job::set_combiner_factory(CombinerFactory factory) {
  plan_->set_combiner_factory(std::move(factory));
}

void Job::add_chunk(std::unique_ptr<Chunk> chunk, int gpu) {
  VRMR_CHECK_MSG(!ran_, "cannot add chunks after run()");
  plan_->add_chunk(std::move(chunk), gpu);
}

int Job::num_chunks() const { return plan_->num_chunks(); }

JobStats Job::run() {
  VRMR_CHECK_MSG(!ran_, "Job::run is single-use");
  ran_ = true;
  return plan_->run_to_completion();
}

}  // namespace vrmr::mr
