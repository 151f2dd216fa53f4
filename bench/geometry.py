"""The paper's deployment geometry, shared by the workloads and the probes.

14 electrodes sampled at 2 kHz, a 150 ms (300-sample) window every 15 ms
(30 samples), 8 gesture classes and a 5-deep majority vote.
"""

CHANNELS, WINDOW, SLIDE, SMOOTHING = 14, 300, 30, 5
NUM_CLASSES = 8
SAMPLING_HZ = 2000.0
