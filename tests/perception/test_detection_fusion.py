"""Unit tests for sensor detection and configurable fusion."""

import pytest

from repro.perception import (
    CameraDetector,
    ConfigurableSensorFusion,
    Detection,
    FusionConfig,
    LidarDetector,
    Obstacle,
    Scene,
    SensorDetector,
)


def scene_with(positions, t=0.0):
    return Scene(
        t=t,
        obstacles=[
            Obstacle(obstacle_id=i, x=x, y=y) for i, (x, y) in enumerate(positions)
        ],
    )


class TestDetectors:
    def test_validation(self):
        with pytest.raises(ValueError):
            SensorDetector("s", pos_sigma=-1.0)
        with pytest.raises(ValueError):
            SensorDetector("s", miss_prob=1.0)
        with pytest.raises(ValueError):
            SensorDetector("s", max_range=0.0)

    def test_perfect_sensor_detects_everything(self):
        d = SensorDetector("perfect", pos_sigma=0.0, miss_prob=0.0, seed=0)
        dets = d.detect(scene_with([(1.0, 2.0), (-3.0, 4.0)]))
        assert len(dets) == 2
        assert dets[0].x == 1.0 and dets[0].y == 2.0
        assert dets[0].truth_id == 0

    def test_range_limit(self):
        d = SensorDetector("short", pos_sigma=0.0, miss_prob=0.0, max_range=5.0)
        dets = d.detect(scene_with([(1.0, 1.0), (100.0, 0.0)]))
        assert len(dets) == 1

    def test_miss_probability(self):
        d = SensorDetector("flaky", pos_sigma=0.0, miss_prob=0.5, seed=1)
        total = sum(len(d.detect(scene_with([(1.0, 1.0)] * 10))) for _ in range(50))
        assert 150 < total < 350  # ~250 expected

    def test_noise_applied(self):
        d = SensorDetector("noisy", pos_sigma=0.5, miss_prob=0.0, seed=2)
        det = d.detect(scene_with([(0.0, 0.0)]))[0]
        assert (det.x, det.y) != (0.0, 0.0)

    def test_default_sensors(self):
        cam, lid = CameraDetector(seed=0), LidarDetector(seed=0)
        assert cam.name == "camera" and lid.name == "lidar"
        assert lid.pos_sigma < cam.pos_sigma


class TestFusion:
    def det(self, sensor, x, y, truth=None):
        return Detection(sensor=sensor, x=x, y=y, t=0.0, truth_id=truth)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FusionConfig(gate_distance=0.0)
        with pytest.raises(ValueError):
            FusionConfig(lidar_weight=1.5)

    def test_matching_pairs_fuse(self):
        f = ConfigurableSensorFusion(FusionConfig(lidar_weight=0.8))
        cam = [self.det("camera", 0.1, 0.0, truth=7)]
        lid = [self.det("lidar", 0.0, 0.0, truth=7)]
        fused = f.fuse(cam, lid)
        assert len(fused) == 1
        assert fused[0].n_sensors == 2
        assert fused[0].x == pytest.approx(0.02)
        assert fused[0].truth_id == 7

    def test_gate_splits_distant_pairs(self):
        f = ConfigurableSensorFusion(FusionConfig(gate_distance=1.0))
        cam = [self.det("camera", 0.0, 0.0)]
        lid = [self.det("lidar", 10.0, 0.0)]
        fused = f.fuse(cam, lid)
        assert len(fused) == 2
        assert all(o.n_sensors == 1 for o in fused)

    def test_unmatched_passthrough(self):
        f = ConfigurableSensorFusion()
        cam = [self.det("camera", 0.0, 0.0), self.det("camera", 50.0, 0.0)]
        lid = [self.det("lidar", 0.1, 0.0)]
        fused = f.fuse(cam, lid)
        assert len(fused) == 2
        assert sorted(o.n_sensors for o in fused) == [1, 2]

    def test_empty_inputs(self):
        f = ConfigurableSensorFusion()
        assert f.fuse([], []) == []
        only_cam = f.fuse([self.det("camera", 1.0, 1.0)], [])
        assert len(only_cam) == 1 and only_cam[0].n_sensors == 1

    def test_association_is_nearest_pairing(self):
        f = ConfigurableSensorFusion(FusionConfig(gate_distance=5.0))
        cam = [self.det("camera", 0.0, 0.0, truth=0), self.det("camera", 10.0, 0.0, truth=1)]
        lid = [self.det("lidar", 9.9, 0.0, truth=1), self.det("lidar", 0.1, 0.0, truth=0)]
        fused = f.fuse(cam, lid)
        matched = [o for o in fused if o.n_sensors == 2]
        assert len(matched) == 2
        assert all(o.truth_id in (0, 1) for o in matched)

    def test_cost_matrix_shape(self):
        f = ConfigurableSensorFusion()
        cam = [self.det("camera", 0.0, 0.0)] * 2
        lid = [self.det("lidar", 1.0, 0.0)] * 3
        m = f.cost_matrix(cam, lid)
        assert len(m) == 2 and len(m[0]) == 3
        assert m[0][0] == pytest.approx(1.0)


class TestSensorDropout:
    def test_pipeline_survives_camera_blackout(self):
        """With the camera near-dead, LiDAR singletons keep the fused output alive."""
        camera = SensorDetector("camera", miss_prob=0.99, seed=0)
        lidar = LidarDetector(seed=1, miss_prob=0.0)
        fusion = ConfigurableSensorFusion()
        for k in range(10):
            t = k * 0.1
            # Six obstacles spread over the lidar's range, drifting slowly.
            scene = scene_with(
                [(-50.0 + 20.0 * i + 0.3 * t, 40.0 - 15.0 * i - 0.2 * t) for i in range(6)],
                t=t,
            )
            cam, lid = camera.detect(scene), lidar.detect(scene)
            fused = fusion.fuse(cam, lid)
            assert lid and fused, "lidar-only detections still flow"
            # Every detection lands in exactly one fused obstacle.
            assert sum(o.n_sensors for o in fused) == len(cam) + len(lid)
